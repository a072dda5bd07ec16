#include "synth_trace.hh"

#include <cmath>

#include "common/log.hh"

namespace dasdram
{

SyntheticTrace::SyntheticTrace(const BenchmarkProfile &profile,
                               std::uint64_t seed,
                               std::uint64_t page_bytes,
                               std::uint64_t line_bytes)
    : prof_(profile), seed_(seed), pageBytes_(page_bytes),
      lineBytes_(line_bytes), rng_(seed)
{
    if (page_bytes % line_bytes != 0)
        fatal("page size must be a multiple of the line size");
    linesPerPage_ = pageBytes_ / lineBytes_;
    footprintPages_ = static_cast<std::uint64_t>(
        prof_.footprintMiB * static_cast<double>(MiB) /
        static_cast<double>(pageBytes_));
    if (footprintPages_ < 16)
        fatal("footprint of '{}' too small ({} pages)", prof_.name,
              footprintPages_);
    activeRegionPages_ = std::min<std::uint64_t>(
        footprintPages_,
        std::max<std::uint64_t>(
            prof_.workingSetPages + 1,
            static_cast<std::uint64_t>(
                prof_.activeRegionFactor *
                static_cast<double>(prof_.workingSetPages))));
    hotPages_ = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               prof_.hotFraction *
               static_cast<double>(activeRegionPages_)));
    hotZipf_ = ZipfParams(hotPages_, prof_.zipfS);
    double mix =
        prof_.pStream + prof_.pWork + prof_.pHot + prof_.pUniform;
    if (mix < 0.999 || mix > 1.001)
        fatal("pattern mix of '{}' must sum to 1 (got {})", prof_.name,
              mix);
    reset();
}

void
SyntheticTrace::reset()
{
    rng_ = Rng(seed_);
    streamPos_.assign(std::max(1u, prof_.streams), 0);
    for (std::size_t s = 0; s < streamPos_.size(); ++s) {
        // Spread stream start points across the footprint, staggered by
        // a few pages so concurrent streams land in different banks
        // instead of conflicting in lockstep.
        std::uint64_t page = (footprintPages_ * s) / streamPos_.size() +
                             5 * s;
        streamPos_[s] = (page % footprintPages_) * linesPerPage_;
    }
    nextStream_ = 0;
    sliceSalt_.assign(64, 0);
    workSet_.assign(std::max<std::uint64_t>(1, prof_.workingSetPages), 0);
    for (std::uint64_t &page : workSet_)
        page = rng_.nextBelow(activeRegionPages_);
    workHead_ = 0;
    recent_.fill(0);
    recentCount_ = 0;
    runLeft_ = 0;
    runLine_ = 0;
    instCount_ = 0;
    nextPhaseAt_ = prof_.phaseInstructions;
    phase_ = 0;
    gapMean_ = prof_.memRatio > 0.0
                   ? (1.0 - prof_.memRatio) / prof_.memRatio
                   : 0.0;
}

void
SyntheticTrace::serdeState(Archive &ar)
{
    ar.section("synthTrace");
    // The vector sizes are the ones reset() derives from the profile.
    ar.expectCount(streamPos_.size(), "synthTrace streamPos");
    for (std::uint64_t &pos : streamPos_)
        ar.io(pos);
    ar.io(nextStream_);
    ar.expectCount(sliceSalt_.size(), "synthTrace sliceSalt");
    for (std::uint64_t &salt : sliceSalt_)
        ar.io(salt);
    ar.expectCount(workSet_.size(), "synthTrace workSet");
    for (std::uint64_t &page : workSet_)
        ar.io(page);
    ar.io(workHead_);
    for (Addr &a : recent_)
        ar.io(a);
    ar.io(recentCount_);
    ar.io(runLeft_);
    ar.io(runLine_);
    ar.io(instCount_);
    ar.io(nextPhaseAt_);
    ar.io(phase_);
    ar.io(gapMean_);
    rng_.serdeState(ar);
    ar.end();
    if (ar.loading())
        checkRestored();
}

void
SyntheticTrace::checkRestored() const
{
    const std::uint64_t lines = footprintPages_ * linesPerPage_;
    auto refuse = [this](const char *field, std::uint64_t value,
                         std::uint64_t bound) {
        fatal("checkpoint: synthTrace '{}' {} {} is not below {}",
              prof_.name, field, value, bound);
    };
    for (std::uint64_t pos : streamPos_) {
        if (pos >= lines)
            refuse("streamPos line", pos, lines);
    }
    if (nextStream_ >= streamPos_.size())
        refuse("nextStream", nextStream_, streamPos_.size());
    for (std::uint64_t page : workSet_) {
        if (page >= activeRegionPages_)
            refuse("workSet page", page, activeRegionPages_);
    }
    if (workHead_ >= workSet_.size())
        refuse("workHead", workHead_, workSet_.size());
    for (Addr line : recent_) {
        if (line >= lines)
            refuse("recent line", line, lines);
    }
    if (runLine_ >= lines)
        refuse("runLine", runLine_, lines);
}

void
SyntheticTrace::maybeAdvancePhase()
{
    if (prof_.phaseInstructions == 0 || instCount_ < nextPhaseAt_)
        return;
    ++phase_;
    nextPhaseAt_ += prof_.phaseInstructions;
    // Hot-set drift: each slice of the popularity ranks re-salts with
    // probability phaseDrift and KEEPS its new salt, so the hot layout
    // random-walks. Per-phase churn stays bounded (≈ drift · hotPages
    // promotions) while the lifetime union of hot locations keeps
    // growing — which is what dilutes lifetime-based static profiling
    // (Section 7.1's static-vs-dynamic discussion).
    for (std::uint64_t &salt : sliceSalt_) {
        if (rng_.chance(prof_.phaseDrift))
            salt = rng_.next() % footprintPages_;
    }
}

Addr
SyntheticTrace::pickLine()
{
    const std::uint64_t footprint_lines = footprintPages_ * linesPerPage_;

    // Short-term reuse applies to every access, including mid-run:
    // spatial runs model new-line touches, reuse models the register/
    // stack locality interleaved with them. This keeps the LLC miss
    // rate ≈ (1 - reuseProb) · memRatio, the calibration handle.
    if (recentCount_ > 0 && rng_.chance(prof_.reuseProb)) {
        return recent_[rng_.nextBelow(
            std::min<std::uint64_t>(recentCount_, recent_.size()))];
    }

    if (runLeft_ > 0) {
        --runLeft_;
        runLine_ = (runLine_ + 1) % footprint_lines;
        return runLine_;
    }

    double sel = rng_.nextDouble();
    if (sel < prof_.pStream) {
        std::uint64_t &pos = streamPos_[nextStream_];
        nextStream_ = (nextStream_ + 1) % streamPos_.size();
        std::uint64_t line = pos;
        pos = (pos + 1) % footprint_lines;
        return line;
    }
    if (sel < prof_.pStream + prof_.pWork) {
        // Wandering working set: uniform over a FIFO ring of resident
        // pages. Lifetime reference counts are flat (profiling can't
        // rank these rows) but recency is strong (dynamic migration
        // keeps the residents fast). Slow turnover bounds promotion
        // churn to ≈ churn per working-set access.
        std::uint64_t line =
            workSet_[rng_.nextBelow(workSet_.size())] * linesPerPage_ +
            rng_.nextBelow(linesPerPage_);
        if (rng_.chance(prof_.workingSetChurn)) {
            workSet_[workHead_] = rng_.nextBelow(activeRegionPages_);
            workHead_ = (workHead_ + 1) % workSet_.size();
        }
        if (prof_.runLength > 1)
            runLeft_ = prof_.runLength - 1;
        runLine_ = line;
        return line;
    }
    if (sel < prof_.pStream + prof_.pWork + prof_.pHot) {
        // The hot set is hotPages_ pages scattered over the WHOLE
        // footprint by a multiplicative permutation: real hot rows are
        // sprinkled across the address space (heap allocation order),
        // so each migration group sees ≈ hotFraction of its rows hot —
        // the quantity the fast-level ratio competes with. Each rank
        // slice carries a salt that drifts across phases.
        std::uint64_t rank = rng_.nextZipf(hotZipf_);
        std::uint64_t salt = sliceSalt_[rank % sliceSalt_.size()];
        std::uint64_t page =
            (rank * 2147483647ULL + salt) % activeRegionPages_;
        std::uint64_t line =
            page * linesPerPage_ + rng_.nextBelow(linesPerPage_);
        // Spatial run within/after the chosen line (row locality).
        if (prof_.runLength > 1)
            runLeft_ = prof_.runLength - 1;
        runLine_ = line;
        return line;
    }
    // Uniform pointer chase: single-line touch, no run.
    std::uint64_t page = rng_.nextBelow(footprintPages_);
    return page * linesPerPage_ + rng_.nextBelow(linesPerPage_);
}

bool
SyntheticTrace::next(TraceEntry &out)
{
    // Geometric-ish gap with mean (1-m)/m via exponential sampling;
    // rounding (not flooring) keeps the realised memory ratio unbiased.
    double u = rng_.nextDouble();
    double g = -gapMean_ * std::log(1.0 - u);
    auto gap = static_cast<std::uint32_t>(
        std::min(g + 0.5, 100000.0));
    instCount_ += gap + 1;
    maybeAdvancePhase();

    std::uint64_t line = pickLine();
    recent_[recentCount_ % recent_.size()] = line;
    ++recentCount_;

    out.gap = gap;
    out.addr = line * lineBytes_;
    out.isWrite = rng_.chance(prof_.writeFraction);
    return true;
}

} // namespace dasdram
