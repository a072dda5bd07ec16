#include "core.hh"

#include "common/log.hh"

namespace dasdram
{

Core::Core(int id, const CoreConfig &cfg, TraceSource &trace,
           MemAccessFn mem)
    : id_(id), cfg_(cfg), trace_(&trace), mem_(std::move(mem)),
      window_(cfg.robSize), statGroup_("core" + std::to_string(id))
{
    if (cfg.robSize == 0 || cfg.issueWidth == 0)
        fatal("core{}: ROB size and issue width must be positive", id);
    statGroup_.addCounter("retired", &retired_, "retired instructions");
    statGroup_.addCounter("cycles", &cycles_, "elapsed CPU cycles");
    statGroup_.addCounter("loads", &loads_);
    statGroup_.addCounter("stores", &stores_);
    statGroup_.addCounter("robStallCycles", &robStallCycles_,
                          "cycles retirement blocked on a load");
    statGroup_.addFormula(
        "ipc", [this] { return ipc(); }, "instructions per cycle");
}

void
Core::refill()
{
    if (trace_->next(pending_)) {
        havePending_ = true;
        gapLeft_ = pending_.gap;
    } else {
        traceDone_ = true;
        havePending_ = false;
        gapLeft_ = 0;
    }
}

void
Core::dispatchOne(Cycle now)
{
    const unsigned slot_index = tail_;
    Slot &slot = window_[tail_];
    if (++tail_ == cfg_.robSize)
        tail_ = 0;
    ++windowCount_;

    if (gapLeft_ > 0) {
        --gapLeft_;
        slot = Slot{};
        slot.doneAtTick = now;
        return;
    }

    // The memory instruction of the pending record.
    slot.isMem = true;
    slot.isLoad = !pending_.isWrite;
    slot.done = !slot.isLoad; // stores retire via the store buffer
    slot.doneAtTick = now;
    (slot.isLoad ? loads_ : stores_).inc();

    Addr addr = pending_.addr;
    bool is_write = pending_.isWrite;
    havePending_ = false;

    mem_(addr, is_write, slot.isLoad ? slot_index : kNoSlot);
}

void
Core::completeLoad(unsigned slot, Cycle done_tick)
{
    if (slot >= window_.size())
        panic("core{}: completeLoad slot {} out of range", id_, slot);
    Slot &s = window_[slot];
    s.done = true;
    s.doneAtTick = done_tick;
}

void
Core::tick(Cycle now)
{
    cycles_.inc();

    // In-order retirement, up to issueWidth per cycle.
    unsigned retired_now = 0;
    while (retired_now < cfg_.issueWidth && windowCount_ > 0) {
        Slot &s = window_[head_];
        if (!s.done || s.doneAtTick > now) {
            if (s.isMem && s.isLoad)
                robStallCycles_.inc();
            break;
        }
        if (++head_ == cfg_.robSize)
            head_ = 0;
        --windowCount_;
        retired_.inc();
        ++retired_now;
    }

    // Dispatch up to issueWidth new instructions.
    for (unsigned d = 0; d < cfg_.issueWidth; ++d) {
        if (windowCount_ >= cfg_.robSize)
            break;
        if (!havePending_ && !traceDone_)
            refill();
        if (!havePending_ && gapLeft_ == 0)
            break; // trace exhausted
        dispatchOne(now);
    }
}

void
Core::serdeState(Archive &ar)
{
    ar.section("core");
    ar.expectCount(window_.size(), "ROB slots");
    for (Slot &s : window_) {
        ar.io(s.isMem);
        ar.io(s.isLoad);
        ar.io(s.done);
        ar.io(s.doneAtTick);
    }
    ar.io(head_);
    ar.io(tail_);
    ar.io(windowCount_);
    if (ar.loading() && (head_ >= cfg_.robSize || tail_ >= cfg_.robSize ||
                         windowCount_ > cfg_.robSize)) {
        fatal("checkpoint: core{} ROB cursors head {} tail {} count {} "
              "do not fit its {} slots",
              id_, head_, tail_, windowCount_, cfg_.robSize);
    }
    ar.io(pending_.gap);
    ar.io(pending_.addr);
    ar.io(pending_.isWrite);
    ar.io(gapLeft_);
    ar.io(havePending_);
    ar.io(traceDone_);
    ar.end();
}

} // namespace dasdram
