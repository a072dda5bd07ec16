#include "translation_cache.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace dasdram
{

TranslationCache::TranslationCache(std::uint64_t capacity_bytes,
                                   unsigned assoc)
    : capacity_(capacity_bytes), assoc_(assoc),
      statGroup_("translationCache")
{
    if (assoc_ == 0 || capacity_ % assoc_ != 0)
        fatal("translation cache capacity must be a multiple of assoc");
    numSets_ = capacity_ / assoc_;
    if (!isPowerOfTwo(numSets_))
        fatal("translation cache set count must be a power of two");
    rows_.assign(capacity_, ~0ULL);
    valid_.assign(capacity_, 0);
    stamps_.assign(capacity_, 0);

    statGroup_.addCounter("hits", &hits_);
    statGroup_.addCounter("misses", &misses_);
    statGroup_.addFormula(
        "hitRatio", [this] { return hitRatio(); },
        "fraction of lookups hitting the tag cache");
}

std::size_t
TranslationCache::setBase(GlobalRowId row) const
{
    // Mix the bits a little so bank-interleaved rows spread over sets.
    std::uint64_t h = row * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>((h >> 16) & (numSets_ - 1)) * assoc_;
}

std::size_t
TranslationCache::find(GlobalRowId row) const
{
    const std::size_t base = setBase(row);
    const GlobalRowId *rows = &rows_[base];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (rows[w] == row && valid_[base + w])
            return base + w;
    }
    return kNoWay;
}

bool
TranslationCache::lookup(GlobalRowId row)
{
    const std::size_t i = find(row);
    if (i != kNoWay) {
        stamps_[i] = ++stampCounter_;
        hits_.inc();
        return true;
    }
    misses_.inc();
    return false;
}

bool
TranslationCache::probe(GlobalRowId row) const
{
    return find(row) != kNoWay;
}

void
TranslationCache::insert(GlobalRowId row)
{
    if (std::size_t i = find(row); i != kNoWay) {
        stamps_[i] = ++stampCounter_;
        return;
    }
    const std::size_t base = setBase(row);
    std::size_t victim = kNoWay;
    for (unsigned w = 0; w < assoc_; ++w) {
        if (!valid_[base + w]) {
            victim = base + w;
            break;
        }
    }
    if (victim == kNoWay) {
        victim = base;
        for (unsigned w = 1; w < assoc_; ++w) {
            if (stamps_[base + w] < stamps_[victim])
                victim = base + w;
        }
    }
    rows_[victim] = row;
    valid_[victim] = 1;
    stamps_[victim] = ++stampCounter_;
}

void
TranslationCache::invalidate(GlobalRowId row)
{
    if (std::size_t i = find(row); i != kNoWay)
        valid_[i] = 0;
}

void
TranslationCache::serdeState(Archive &ar)
{
    ar.section("transCache");
    ar.io(stampCounter_);
    if (ar.loading()) {
        std::fill(rows_.begin(), rows_.end(), ~0ULL);
        std::fill(valid_.begin(), valid_.end(), 0);
        std::fill(stamps_.begin(), stamps_.end(), 0);
    }
    ar.liveEntries(
        rows_.size(), "tag-cache entry",
        [this](auto &&entry) {
            for (std::size_t i = 0; i < valid_.size(); ++i)
                if (valid_[i] != 0)
                    entry(i);
        },
        [&](std::uint64_t i) {
            ar.io(rows_[i]);
            ar.io(stamps_[i]);
            if (ar.loading()) {
                valid_[i] = 1;
                checkRestoredEntry(static_cast<std::size_t>(i));
            }
        });
    ar.end();
}

void
TranslationCache::checkRestoredEntry(std::size_t i) const
{
    const GlobalRowId row = rows_[i];
    const std::size_t base = i - i % assoc_;
    if (setBase(row) != base) {
        fatal("checkpoint: tag-cache entry {}: row {} does not belong to "
              "set {}",
              i, row, base / assoc_);
    }
    for (std::size_t w = base; w < i; ++w) {
        if (valid_[w] && rows_[w] == row) {
            fatal("checkpoint: tag-cache entry {}: row {} repeats entry {} "
                  "of its set",
                  i, row, w);
        }
    }
    if (stamps_[i] > stampCounter_) {
        fatal("checkpoint: tag-cache entry {}: stamp {} is newer than the "
              "stamp counter {}",
              i, stamps_[i], stampCounter_);
    }
}

} // namespace dasdram
