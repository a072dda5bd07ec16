#include "epoch_series.hh"

#include "common/log.hh"

namespace dasdram
{

namespace
{

/** Collects names on the first pass, values on every later pass. */
class CollectVisitor : public StatVisitor
{
  public:
    CollectVisitor(std::vector<std::string> *names,
                   std::vector<double> &values)
        : names_(names), values_(values)
    {}

    void
    onCounter(const std::string &name, const Counter &c,
              const std::string &) override
    {
        push(name, static_cast<double>(c.value()));
    }

    void
    onDistribution(const std::string &name, const Distribution &d,
                   const std::string &) override
    {
        push(name + ".count", static_cast<double>(d.count()));
        push(name + ".sum", d.sum());
    }

    void
    onHistogram(const std::string &name, const Histogram &h,
                const std::string &) override
    {
        push(name + ".count", static_cast<double>(h.count()));
        push(name + ".sum", h.sum());
    }

  private:
    void
    push(const std::string &name, double v)
    {
        if (names_)
            names_->push_back(name);
        values_.push_back(v);
    }

    std::vector<std::string> *names_;
    std::vector<double> &values_;
};

} // namespace

EpochSeries::EpochSeries(const StatGroup &group, Cycle epoch_length)
    : group_(&group), epochLength_(epoch_length)
{
    if (epochLength_ == 0)
        panic("EpochSeries: epoch length must be > 0");
    CollectVisitor v(&names_, prev_);
    group_->visit(v);
}

void
EpochSeries::collect(std::vector<double> &out) const
{
    out.clear();
    CollectVisitor v(nullptr, out);
    group_->visit(v);
    if (out.size() != names_.size()) {
        panic("EpochSeries: stat tree changed shape after construction "
              "({} values, expected {})",
              out.size(), names_.size());
    }
}

void
EpochSeries::maybeSample(Cycle now)
{
    Cycle next_end = base_ + (nextIndex_ + 1) * epochLength_;
    if (now < next_end)
        return;
    collect(scratch_);
    bool first = true;
    while (now >= next_end) {
        Epoch e;
        e.index = nextIndex_;
        e.start = next_end - epochLength_;
        e.end = next_end;
        e.deltas.resize(names_.size());
        if (first) {
            for (std::size_t i = 0; i < names_.size(); ++i)
                e.deltas[i] = scratch_[i] - prev_[i];
            first = false;
        }
        epochs_.push_back(std::move(e));
        ++nextIndex_;
        next_end += epochLength_;
    }
    prev_ = scratch_;
}

void
EpochSeries::restart(Cycle now)
{
    epochs_.clear();
    nextIndex_ = 0;
    base_ = now;
    collect(scratch_);
    prev_ = scratch_;
}

void
EpochSeries::serdeState(Archive &ar)
{
    ar.section("epochSeries");
    ar.io(epochLength_);
    ar.io(base_);
    ar.io(nextIndex_);
    ar.expectCount(names_.size(), "epoch-series tracked stats");
    ar.io(prev_);
    std::uint64_t n = epochs_.size();
    ar.ioCount(n);
    if (ar.loading())
        epochs_.resize(static_cast<std::size_t>(n));
    for (Epoch &e : epochs_) {
        ar.io(e.index);
        ar.io(e.start);
        ar.io(e.end);
        ar.io(e.deltas);
    }
    ar.end();
}

void
EpochSeries::flush(Cycle now)
{
    // Emit any still-pending complete epochs first: a fast-forwarding
    // caller may land here with boundaries it never sampled, and the
    // trailing partial epoch must not swallow whole epochs' worth of
    // time. (Under unit-cycle advancement this is a no-op.)
    maybeSample(now);
    const Cycle last_boundary = base_ + nextIndex_ * epochLength_;
    if (now <= last_boundary)
        return;
    collect(scratch_);
    Epoch e;
    e.index = nextIndex_;
    e.start = last_boundary;
    e.end = now;
    e.deltas.resize(names_.size());
    for (std::size_t i = 0; i < names_.size(); ++i)
        e.deltas[i] = scratch_[i] - prev_[i];
    epochs_.push_back(std::move(e));
    ++nextIndex_;
    prev_ = scratch_;
}

} // namespace dasdram
