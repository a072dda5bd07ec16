#include "rank.hh"

#include <algorithm>

#include "common/log.hh"

namespace dasdram
{

Rank::Rank(const DramTiming &timing, unsigned num_banks)
    : timing_(&timing), nextRefreshAt_(timing.tREFI)
{
    banks_.reserve(num_banks);
    for (unsigned i = 0; i < num_banks; ++i)
        banks_.emplace_back(timing);
}

bool
Rank::canActivate(Cycle now) const
{
    return now >= activateAllowedAt();
}

Cycle
Rank::activateAllowedAt() const
{
    if (actCount_ == 0)
        return 0;
    // tRRD from the last ACT; tFAW from the 4th-most-recent ACT (only
    // once four activates have happened).
    Cycle allowed = lastActAt_ + timing_->tRRD;
    if (actCount_ >= actTimes_.size())
        allowed = std::max(allowed, actTimes_[actHead_] + timing_->tFAW);
    return allowed;
}

void
Rank::recordActivate(Cycle now)
{
    if (!canActivate(now))
        panic("Rank::recordActivate violates tRRD/tFAW at cycle {}", now);
    actTimes_[actHead_] = now;
    actHead_ = (actHead_ + 1) % actTimes_.size();
    lastActAt_ = now;
    ++actCount_;
}

void
Rank::recordWriteBurst(Cycle burst_end)
{
    readAllowedAt_ = std::max(readAllowedAt_, burst_end + timing_->tWTR);
}

bool
Rank::allBanksIdle(Cycle now) const
{
    for (const Bank &b : banks_) {
        if (b.hasOpenRow() || b.reserved(now))
            return false;
    }
    return true;
}

void
Rank::refresh(Cycle now)
{
    if (!allBanksIdle(now))
        panic("Rank::refresh with open or reserved banks at cycle {}", now);
    Cycle done = now + timing_->tRFC;
    refreshingUntil_ = done;
    refreshBusyTotal_ += timing_->tRFC;
    for (Bank &b : banks_)
        b.refresh(done);
    nextRefreshAt_ += timing_->tREFI;
    // If the controller fell behind (e.g. long migration burst), do not
    // schedule refreshes in the past.
    if (nextRefreshAt_ <= now)
        nextRefreshAt_ = now + timing_->tREFI;
    ++refreshCount_;
}

} // namespace dasdram
