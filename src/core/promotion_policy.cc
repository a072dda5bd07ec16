#include "promotion_policy.hh"

#include "common/log.hh"

namespace dasdram
{

void
checkPromotionConfig(const PromotionConfig &cfg)
{
    if (cfg.threshold == 0)
        fatal("promotion threshold (das.promotionThreshold) must be at "
              "least 1");
    if (cfg.counters == 0)
        fatal("promotion counters (das.promotionCounters) must be at "
              "least 1");
}

PromotionFilter::PromotionFilter(const PromotionConfig &cfg)
    : cfg_(cfg), statGroup_("promotionFilter")
{
    checkPromotionConfig(cfg);
    // Threshold 1 promotes on every slow access and never counts.
    if (cfg.threshold > 1)
        slots_.resize(cfg.counters);
    statGroup_.addCounter("filtered", &filtered_,
                          "slow accesses not (yet) promoted");
    statGroup_.addCounter("allowed", &allowed_, "promotions allowed");
}

bool
PromotionFilter::onSlowAccess(GlobalRowId row)
{
    if (cfg_.threshold <= 1) {
        allowed_.inc();
        return true;
    }
    Slot &s = slots_[row % slots_.size()];
    if (!s.valid || s.row != row) {
        // Take over the counter for this recently used row.
        s.valid = true;
        s.row = row;
        s.count = 1;
    } else {
        ++s.count;
    }
    if (s.count >= cfg_.threshold) {
        s.valid = false;
        allowed_.inc();
        return true;
    }
    filtered_.inc();
    return false;
}

void
PromotionFilter::clear(GlobalRowId row)
{
    if (slots_.empty())
        return;
    Slot &s = slots_[row % slots_.size()];
    if (s.valid && s.row == row)
        s.valid = false;
}

} // namespace dasdram
