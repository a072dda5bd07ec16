/**
 * @file
 * Memory request type exchanged between the cache hierarchy, the DAS
 * manager and the DRAM system.
 */

#ifndef DASDRAM_MEM_REQUEST_HH
#define DASDRAM_MEM_REQUEST_HH

#include <cstdint>
#include <memory>

#include "common/continuation.hh"
#include "common/types.hh"
#include "dram/geometry.hh"

namespace dasdram
{

struct RequestSpan; // mem/request_trace.hh

/** Where a DRAM data access was ultimately serviced from (Figure 7c/f). */
enum class ServiceLocation : std::uint8_t
{
    Unknown,   ///< not yet serviced
    RowBuffer, ///< open-row hit, no activation needed
    FastLevel, ///< required an activation in a fast subarray
    SlowLevel, ///< required an activation in a slow subarray
};

/** Converts a ServiceLocation to a short display string. */
const char *toString(ServiceLocation loc);

/**
 * A memory-controller-level request (one cache line). Created on LLC
 * misses and LLC writebacks; freed by the DRAM system after its
 * owner's completion sink has seen it (dram/controller.hh).
 */
struct MemRequest
{
    std::uint64_t id = 0;        ///< unique, assigned by the system
    Addr addr = kAddrInvalid;    ///< physical byte address (line aligned)
    bool isWrite = false;
    int coreId = -1;             ///< issuing core, -1 for system traffic
    Cycle arrivalTick = 0;       ///< tick it reached the controller
    Cycle readyTick = 0;         ///< earliest tick the controller may
                                 ///< schedule it (after translation)
    Cycle completionTick = 0;

    /// True for requests generated by the DAS translation-table walker.
    bool isTableAccess = false;

    /// Decoded DRAM coordinates (post-translation physical row).
    DramLoc loc;

    /// Logical (pre-translation) row identity, for DAS accounting.
    GlobalRowId logicalRow = 0;

    ServiceLocation location = ServiceLocation::Unknown;

    /// Row activation happened in a fast subarray (for energy stats).
    bool servicedFast = false;

    /**
     * Lifecycle span, non-null only for the sampled subset of
     * requests when request tracing is enabled. Strictly
     * observational: nothing may branch on it except tracing code
     * itself. Special members are out-of-line so this header does not
     * need the span definition (mem/request_trace.hh).
     */
    std::unique_ptr<RequestSpan> span;

    /**
     * Serialisable identity of this request's completion action,
     * interpreted by the owner's completion sink. Being plain data, it
     * survives a checkpoint like every other field.
     */
    Continuation cont;

    /**
     * Checkpoint every data field (the span inline when present, with
     * arrival/ready times and DRAM coordinates).
     */
    void serdeState(Archive &ar);

    MemRequest();
    MemRequest(Addr a, bool write, int core);
    MemRequest(MemRequest &&) noexcept;
    MemRequest &operator=(MemRequest &&) noexcept;
    ~MemRequest();
};

} // namespace dasdram

#endif // DASDRAM_MEM_REQUEST_HH
