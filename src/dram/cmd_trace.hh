/**
 * @file
 * Command-level observation of a DRAM channel: the record type every
 * issued command is described by, the sink interface the controller
 * emits records to, a fan-out helper, and a plain-text trace writer.
 *
 * The hook is zero-cost when unused: ChannelController only builds a
 * CmdRecord when a sink is attached (ChannelController::setCommandSink).
 */

#ifndef DASDRAM_DRAM_CMD_TRACE_HH
#define DASDRAM_DRAM_CMD_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/types.hh"
#include "dram/command.hh"
#include "dram/row_class.hh"

namespace dasdram
{

/**
 * One issued DRAM command. Field meaning depends on the command:
 *  - ACT/RD/WR/PRE: row is the target row (for PRE, the row being
 *    closed), rowClass its subarray class; RD/WR also carry column.
 *  - REF: rank-wide; row is kAddrInvalid, duration is tRFC.
 *  - MIGRATE: row/rowB are the two rows moved, [rowLo, rowHi) the row
 *    range the job blocks, duration the busy time (always swapCycles),
 *    migrationId a nonzero per-channel job id.
 *
 * All times are memory-bus cycles (tCK = 1.25 ns).
 */
struct CmdRecord
{
    Cycle cycle = 0;
    DramCommand cmd = DramCommand::ACT;
    unsigned channel = 0;
    unsigned rank = 0;
    unsigned bank = 0;
    std::uint64_t row = kAddrInvalid;
    std::uint64_t column = 0;
    RowClass rowClass = RowClass::Slow;
    std::uint64_t migrationId = 0; ///< MIGRATE only; 0 = none
    std::uint64_t rowB = kAddrInvalid;
    std::uint64_t rowLo = 0;
    std::uint64_t rowHi = 0;
    Cycle duration = 0;
};

/** Receives every command a controller issues, in issue order. */
class CommandSink
{
  public:
    virtual ~CommandSink() = default;
    virtual void onCommand(const CmdRecord &rec) = 0;
};

/** Forwards each record to several sinks (e.g. checker + trace file). */
class CommandFanout : public CommandSink
{
  public:
    void addSink(CommandSink *sink)
    {
        if (sink)
            sinks_.push_back(sink);
    }

    void
    onCommand(const CmdRecord &rec) override
    {
        for (CommandSink *s : sinks_)
            s->onCommand(rec);
    }

  private:
    std::vector<CommandSink *> sinks_;
};

/**
 * A point event from outside the command stream (e.g. a DasManager
 * promotion decision). Times are in global simulation ticks — event
 * producers live in the CPU tick domain, unlike CmdRecord's
 * memory-bus cycles; consumers convert (see mem/clock.hh).
 */
struct TraceInstant
{
    /** Static event name (not copied; string literals only). */
    const char *name = "";
    Cycle tick = 0;
    std::uint64_t row = kAddrInvalid;    ///< subject logical row
    std::uint64_t victim = kAddrInvalid; ///< victim logical row, if any
    std::uint64_t group = 0;             ///< migration group index
    /** Static cause tag (e.g. "threshold"); may be null. */
    const char *cause = nullptr;
};

/** Receives point events; same zero-cost contract as CommandSink. */
class TraceEventSink
{
  public:
    virtual ~TraceEventSink() = default;
    virtual void onInstant(const TraceInstant &ev) = 0;
};

/**
 * Writes one text line per command to a stream. Format (stable, one
 * record per line, documented in DESIGN.md):
 *
 *   <cycle> <CMD> ch<c> ra<r> ba<b> row=<row> cls=<F|S> col=<col>
 *   <cycle> PRE ch<c> ra<r> ba<b> row=<row> cls=<F|S>
 *   <cycle> REF ch<c> ra<r> dur=<tRFC>
 *   <cycle> MIGRATE ch<c> ra<r> ba<b> rowA=<a> rowB=<b> \
 *       range=[<lo>,<hi>) id=<n> dur=<cycles>
 */
class CommandTrace : public CommandSink
{
  public:
    /** @param os destination stream; must outlive the trace. */
    explicit CommandTrace(std::ostream &os) : os_(&os) {}

    void onCommand(const CmdRecord &rec) override;

    std::uint64_t commandCount() const { return count_; }

  private:
    std::ostream *os_;
    std::uint64_t count_ = 0;
};

} // namespace dasdram

#endif // DASDRAM_DRAM_CMD_TRACE_HH
