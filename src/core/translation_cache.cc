#include "translation_cache.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace dasdram
{

TranslationCache::TranslationCache(std::uint64_t capacity_bytes,
                                   unsigned assoc, std::uint64_t total_rows)
    : capacity_(capacity_bytes), assoc_(assoc), totalRows_(total_rows),
      statGroup_("translationCache")
{
    if (assoc_ == 0 || capacity_ % assoc_ != 0)
        fatal("translation cache capacity must be a multiple of assoc");
    if (assoc_ > kLruMaxAssoc) {
        fatal("translation cache associativity {} exceeds the {} ways a "
              "one-byte recency rank can order",
              assoc_, kLruMaxAssoc);
    }
    numSets_ = capacity_ / assoc_;
    if (!isPowerOfTwo(numSets_))
        fatal("translation cache set count must be a power of two");
    if (totalRows_ > kEmptyRow) {
        fatal("translation cache: the geometry's {} rows do not fit a "
              "4-byte row id (at most {})",
              totalRows_, kEmptyRow);
    }
    rows_.assign(capacity_, kEmptyRow);
    order_.assign(capacity_, kLruEmpty);

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

unsigned
TranslationCache::findWay(std::size_t base, GlobalRowId row) const
{
    const std::uint32_t *rows = &rows_[base];
    const auto id = static_cast<std::uint32_t>(row);
    unsigned w = 0;
    while (w < assoc_ && rows[w] != id)
        ++w;
    return w;
}

bool
TranslationCache::lookup(GlobalRowId row)
{
    const std::size_t base = setBase(row);
    const unsigned way = findWay(base, row);
    if (way == assoc_) {
        misses_.inc();
        return false;
    }
    lruTouch(&order_[base], assoc_, way);
    hits_.inc();
    return true;
}

bool
TranslationCache::probe(GlobalRowId row) const
{
    return findWay(setBase(row), row) != assoc_;
}

void
TranslationCache::insert(GlobalRowId row)
{
    const std::size_t base = setBase(row);
    std::uint8_t *order = &order_[base];
    unsigned way = findWay(base, row);
    if (way == assoc_) {
        way = lruFirstEmpty(order, assoc_);
        if (way == assoc_)
            way = lruOldest(order, assoc_);
        rows_[base + way] = static_cast<std::uint32_t>(row);
    }
    lruTouch(order, assoc_, way);
}

void
TranslationCache::invalidate(GlobalRowId row)
{
    const std::size_t base = setBase(row);
    if (unsigned way = findWay(base, row); way != assoc_) {
        rows_[base + way] = kEmptyRow;
        lruRemove(&order_[base], assoc_, way);
    }
}

void
TranslationCache::serdeState(Archive &ar)
{
    ar.section("transCache");
    if (ar.loading()) {
        std::fill(rows_.begin(), rows_.end(), kEmptyRow);
        std::fill(order_.begin(), order_.end(), kLruEmpty);
    }
    ar.liveEntries(
        numSets_, "tag-cache set",
        [this](auto &&entry) {
            for (std::size_t s = 0; s < numSets_; ++s)
                if (lruValidWays(&order_[s * assoc_], assoc_) != 0)
                    entry(s);
        },
        [&](std::uint64_t s) {
            const std::size_t base = static_cast<std::size_t>(s) * assoc_;
            ar.blob(&order_[base], assoc_);
            if (ar.loading())
                checkRestoredOrder(base);
            for (std::size_t i = base; i < base + assoc_; ++i) {
                if (order_[i] == kLruEmpty)
                    continue;
                GlobalRowId row = rows_[i];
                ar.io(row);
                if (ar.loading()) {
                    if (row >= totalRows_) {
                        fatal("checkpoint: tag-cache entry {}: row {} is "
                              "outside the device's {} rows",
                              i, row, totalRows_);
                    }
                    rows_[i] = static_cast<std::uint32_t>(row);
                    checkRestoredEntry(i);
                }
            }
        });
    ar.end();
}

void
TranslationCache::checkRestoredOrder(std::size_t base) const
{
    const std::uint8_t *order = &order_[base];
    const unsigned valid = lruValidWays(order, assoc_);
    if (valid == 0) {
        fatal("checkpoint: tag-cache set {}: saved as live with no valid "
              "entry",
              base / assoc_);
    }
    if (unsigned w = lruBadWay(order, assoc_); w != assoc_) {
        fatal("checkpoint: tag-cache set {}: way {} has recency rank {}; "
              "the set's {} valid entries must rank 0..{} once each",
              base / assoc_, w, static_cast<unsigned>(order[w]), valid,
              valid - 1);
    }
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
        if (rows_[w] == row) {
            fatal("checkpoint: tag-cache entry {}: row {} repeats entry {} "
                  "of its set",
                  i, row, w);
        }
    }
}

} // namespace dasdram
