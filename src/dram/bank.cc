#include "bank.hh"

#include <algorithm>

#include "common/log.hh"

namespace dasdram
{

void
Bank::activate(Cycle now, std::uint64_t row, RowClass cls)
{
    if (!canActivate(now, row))
        panic("Bank::activate timing violation at cycle {}", now);
    hasOpenRow_ = true;
    openRow_ = row;
    openClass_ = cls;

    const ArrayTiming &at = timing_->array(cls);
    colAllowedAt_ = now + at.tRCD;
    preAllowedAt_ = now + at.tRAS;
    actAllowedAt_ = now + at.tRC;
}

void
Bank::precharge(Cycle now)
{
    if (!canPrecharge(now))
        panic("Bank::precharge timing violation at cycle {}", now);
    const ArrayTiming &at = timing_->array(openClass_);
    actAllowedAt_ = std::max(actAllowedAt_, now + at.tRP);
    hasOpenRow_ = false;
}

Cycle
Bank::read(Cycle now)
{
    if (!canColumn(now))
        panic("Bank::read timing violation at cycle {}", now);
    const ArrayTiming &at = timing_->array(openClass_);
    preAllowedAt_ = std::max(preAllowedAt_, now + timing_->tRTP);
    return now + at.tCL + timing_->tBL;
}

Cycle
Bank::write(Cycle now)
{
    if (!canColumn(now))
        panic("Bank::write timing violation at cycle {}", now);
    Cycle burst_end = now + timing_->tCWL + timing_->tBL;
    preAllowedAt_ = std::max(preAllowedAt_, burst_end + timing_->tWR);
    return burst_end;
}

void
Bank::reserve(Cycle now, Cycle duration, std::uint64_t row_lo,
              std::uint64_t row_hi, std::uint64_t exempt_a,
              std::uint64_t exempt_b)
{
    if (reserved(now))
        panic("Bank::reserve while already reserved");
    if (hasOpenRow_ && openRow_ >= row_lo && openRow_ < row_hi &&
        openRow_ != exempt_a && openRow_ != exempt_b) {
        panic("Bank::reserve with the open row inside the range");
    }
    reservedUntil_ = now + duration;
    reservedBusyTotal_ += duration;
    resRowLo_ = row_lo;
    resRowHi_ = row_hi;
    resExemptA_ = exempt_a;
    resExemptB_ = exempt_b;
}

void
Bank::refresh(Cycle done_at)
{
    if (hasOpenRow_)
        panic("Bank::refresh requires a precharged bank");
    actAllowedAt_ = std::max(actAllowedAt_, done_at);
}

void
Bank::reset()
{
    hasOpenRow_ = false;
    openRow_ = 0;
    openClass_ = RowClass::Slow;
    actAllowedAt_ = 0;
    preAllowedAt_ = 0;
    colAllowedAt_ = 0;
    reservedUntil_ = 0;
    reservedBusyTotal_ = 0;
    resRowLo_ = 0;
    resRowHi_ = 0;
    resExemptA_ = kAddrInvalid;
    resExemptB_ = kAddrInvalid;
}

} // namespace dasdram
