/**
 * @file
 * Chrome trace_event JSON export of the DRAM command stream, loadable
 * in chrome://tracing and Perfetto.
 *
 * Track layout (pid/tid):
 *  - pid c        = "channel<c>" for each DRAM channel
 *      tid B+1        = "rank<r> bank<b>": row-open spans (ACT → PRE,
 *                       named "row <row> <F|S>"), RD/WR bursts
 *      tid B+1+1000   = companion "… migrate" track: MIGRATE/SWAP
 *                       spans (kept separate so they never overlap
 *                       the row spans, which trace viewers render as
 *                       nesting)
 *      tid 1+nbanks+r = "rank<r> refresh": REF spans (tRFC)
 *    where B = rank * banksPerRank + bank and nbanks is the number of
 *    banks per channel.
 *  - pid channels = "das-manager": instant events from TraceEventSink
 *    (promotion decisions, with row/victim/group/cause args).
 *
 * Timestamps are microseconds (Chrome's unit): memory cycles are
 * multiplied by tCK = 1.25 ns, ticks divided by ticks-per-µs. All
 * events are complete ("X") or instant ("i") events, so the file is
 * valid even for partial runs once finish() has closed the array.
 */

#ifndef DASDRAM_DRAM_TRACE_JSON_HH
#define DASDRAM_DRAM_TRACE_JSON_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "dram/cmd_trace.hh"
#include "dram/geometry.hh"
#include "dram/timing.hh"

namespace dasdram
{

class ChromeTraceWriter : public CommandSink, public TraceEventSink
{
  public:
    /**
     * Stream the trace to @p os (must outlive the writer). Metadata
     * (process/thread names) is written immediately; call finish()
     * to close the JSON document — the destructor does it as a
     * safety net.
     */
    ChromeTraceWriter(std::ostream &os, const DramGeometry &geom,
                      const DramTiming &timing);
    ~ChromeTraceWriter() override;

    void onCommand(const CmdRecord &rec) override;
    void onInstant(const TraceInstant &ev) override;

    /**
     * Flush still-open row spans (ended at the last seen cycle) and
     * close the traceEvents array + top-level object. Idempotent.
     */
    void finish();

    std::uint64_t eventCount() const { return events_; }

  private:
    struct OpenRow
    {
        bool open = false;
        Cycle since = 0;
        std::uint64_t row = 0;
        RowClass cls = RowClass::Slow;
    };

    /** Stream one pre-rendered event object. */
    void emit(const std::string &json);
    void writeMetadata();
    void emitRowSpan(unsigned channel, unsigned rank, unsigned bank,
                     const OpenRow &open, Cycle end);

    unsigned bankTid(unsigned rank, unsigned bank) const;
    double cycleUs(Cycle c) const;

    std::ostream *os_;
    DramGeometry geom_;
    Cycle tBL_;
    bool headerDone_ = false;
    bool finished_ = false;
    std::uint64_t events_ = 0;
    Cycle lastCycle_ = 0;
    /** [channel][rank * banksPerRank + bank] open-row state. */
    std::vector<std::vector<OpenRow>> openRows_;
};

} // namespace dasdram

#endif // DASDRAM_DRAM_TRACE_JSON_HH
