/**
 * @file
 * Serialisable completion tokens.
 *
 * The simulator's asynchronous plumbing (core load completions, MSHR
 * waiters, DAS demand fills) used to be `std::function` closures —
 * impossible to checkpoint. A Continuation is the closed-world
 * replacement: a small POD naming *what* should happen when a memory
 * event completes, interpreted by a dispatcher the owning System
 * installs at construction. Because the token carries data only, it
 * round-trips through an Archive, and a restored simulation gets its
 * behaviour back simply by constructing the same dispatcher again.
 */

#ifndef DASDRAM_COMMON_CONTINUATION_HH
#define DASDRAM_COMMON_CONTINUATION_HH

#include <cstdint>

#include "common/serde.hh"
#include "common/types.hh"

namespace dasdram
{

/** What to do when the event this token rides on completes. */
struct Continuation
{
    enum class Kind : std::uint8_t
    {
        None = 0,       ///< nothing (stores, fire-and-forget traffic)
        CoreLoad = 1,   ///< wake ROB slot @c slot of core @c core
        DemandFill = 2, ///< fill @c line into core @c core's caches and
                        ///< complete the MSHR entry
    };

    /** Core::MemAccessFn slot argument for non-load accesses. */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    Kind kind = Kind::None;
    std::uint32_t core = 0;
    std::uint32_t slot = kNoSlot; ///< ROB slot index (CoreLoad)
    Addr line = 0;                ///< line address (DemandFill)
    bool isWrite = false;         ///< fill writability (DemandFill)

    static Continuation
    coreLoad(std::uint32_t core, std::uint32_t slot)
    {
        Continuation c;
        c.kind = Kind::CoreLoad;
        c.core = core;
        c.slot = slot;
        return c;
    }

    static Continuation
    demandFill(std::uint32_t core, Addr line, bool is_write)
    {
        Continuation c;
        c.kind = Kind::DemandFill;
        c.core = core;
        c.line = line;
        c.isWrite = is_write;
        return c;
    }

    void
    serdeState(Archive &ar)
    {
        ar.io(kind);
        ar.io(core);
        ar.io(slot);
        ar.io(line);
        ar.io(isWrite);
    }
};

} // namespace dasdram

#endif // DASDRAM_COMMON_CONTINUATION_HH
