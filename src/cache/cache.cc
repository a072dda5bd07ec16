#include "cache.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace dasdram
{

Cache::Cache(const CacheConfig &cfg, std::string name, std::uint64_t seed)
    : cfg_(cfg), name_(std::move(name)), rng_(seed), statGroup_(name_)
{
    if (!isPowerOfTwo(cfg.lineBytes))
        fatal("cache '{}': line size must be a power of two", name_);
    // A one-byte line could hold the line address kAddrInvalid, the
    // empty-way tag.
    if (cfg.lineBytes < 2)
        fatal("cache '{}': line size must be at least 2 bytes", name_);
    if (cfg.assoc == 0 || cfg.sizeBytes % (cfg.lineBytes * cfg.assoc) != 0)
        fatal("cache '{}': size not divisible by assoc*line", name_);
    if (!isPowerOfTwo(cfg.numSets()))
        fatal("cache '{}': number of sets must be a power of two", name_);

    if (cfg.assoc > kLruMaxAssoc) {
        fatal("cache '{}': associativity {} exceeds the {} ways a "
              "one-byte recency rank can order",
              name_, cfg.assoc, kLruMaxAssoc);
    }

    lineShift_ = log2Exact(cfg.lineBytes);
    setMask_ = cfg.numSets() - 1;
    const std::size_t n = cfg.numSets() * cfg.assoc;
    tags_.assign(n, kAddrInvalid);
    order_.assign(n, kLruEmpty);
    dirty_.assign(divCeil(n, 8), 0);

    statGroup_.addCounter("hits", &hits_);
    statGroup_.addCounter("misses", &misses_);
    statGroup_.addCounter("evictions", &evictions_);
    statGroup_.addCounter("dirtyEvictions", &dirtyEvictions_);
}

bool
Cache::access(Addr addr, bool is_write)
{
    const Addr line = lineAddr(addr);
    const std::size_t base = setBase(line);
    const unsigned way = findWay(base, line);
    if (way == cfg_.assoc) {
        misses_.inc();
        return false;
    }
    lruTouch(&order_[base], cfg_.assoc, way);
    if (is_write)
        setDirty(base + way, true);
    hits_.inc();
    return true;
}

bool
Cache::probe(Addr addr) const
{
    const Addr line = lineAddr(addr);
    return findWay(setBase(line), line) != cfg_.assoc;
}

Cache::Eviction
Cache::insert(Addr addr, bool dirty)
{
    const Addr line = lineAddr(addr);
    const std::size_t base = setBase(line);
    std::uint8_t *order = &order_[base];
    Eviction ev;
    if (unsigned way = findWay(base, line); way != cfg_.assoc) {
        lruTouch(order, cfg_.assoc, way);
        if (dirty)
            setDirty(base + way, true);
        return ev;
    }

    unsigned way = lruFirstEmpty(order, cfg_.assoc);
    if (way == cfg_.assoc) {
        way = cfg_.repl == CacheRepl::Random
                  ? static_cast<unsigned>(rng_.nextBelow(cfg_.assoc))
                  : lruOldest(order, cfg_.assoc);
        ev.valid = true;
        ev.line = tags_[base + way];
        ev.dirty = dirtyAt(base + way);
        evictions_.inc();
        if (ev.dirty)
            dirtyEvictions_.inc();
    }

    tags_[base + way] = line;
    setDirty(base + way, dirty);
    lruTouch(order, cfg_.assoc, way);
    return ev;
}

bool
Cache::invalidate(Addr addr)
{
    const Addr line = lineAddr(addr);
    const std::size_t base = setBase(line);
    const unsigned way = findWay(base, line);
    if (way == cfg_.assoc)
        return false;
    const bool was_dirty = dirtyAt(base + way);
    tags_[base + way] = kAddrInvalid;
    setDirty(base + way, false);
    lruRemove(&order_[base], cfg_.assoc, way);
    return was_dirty;
}

void
Cache::serdeState(Archive &ar)
{
    ar.section("cache");
    rng_.serdeState(ar);
    if (ar.loading()) {
        std::fill(tags_.begin(), tags_.end(), kAddrInvalid);
        std::fill(order_.begin(), order_.end(), kLruEmpty);
        std::fill(dirty_.begin(), dirty_.end(), 0);
    }
    const unsigned assoc = cfg_.assoc;
    ar.liveEntries(
        cfg_.numSets(), "cache '" + name_ + "' set",
        [&](auto &&entry) {
            for (std::size_t s = 0; s <= setMask_; ++s)
                if (lruValidWays(&order_[s * assoc], assoc) != 0)
                    entry(s);
        },
        [&](std::uint64_t s) {
            const std::size_t base = static_cast<std::size_t>(s) * assoc;
            ar.blob(&order_[base], assoc);
            if (ar.loading())
                checkRestoredOrder(base);
            // The set's dirty bits, way w at bit w % 8 of byte w / 8.
            std::uint8_t mask[kLruMaxAssoc / 8 + 1] = {};
            const std::size_t mask_bytes = divCeil(assoc, 8);
            for (unsigned w = 0; ar.saving() && w < assoc; ++w)
                mask[w >> 3] |= dirtyAt(base + w) ? 1u << (w & 7) : 0u;
            ar.blob(mask, mask_bytes);
            for (unsigned w = 0; w < 8 * mask_bytes; ++w) {
                const bool dirty = (mask[w >> 3] >> (w & 7) & 1) != 0;
                const bool valid = w < assoc && order_[base + w] != kLruEmpty;
                if (ar.loading() && dirty && !valid) {
                    fatal("checkpoint: cache '{}' set {}: way {} is marked "
                          "dirty but holds no line",
                          name_, s, w);
                }
                if (!valid)
                    continue;
                ar.io(tags_[base + w]);
                if (ar.loading()) {
                    setDirty(base + w, dirty);
                    checkRestoredLine(base + w);
                }
            }
        });
    ar.end();
}

void
Cache::checkRestoredOrder(std::size_t base) const
{
    const std::uint8_t *order = &order_[base];
    const unsigned valid = lruValidWays(order, cfg_.assoc);
    if (valid == 0) {
        fatal("checkpoint: cache '{}' set {}: saved as live with no valid "
              "way",
              name_, base / cfg_.assoc);
    }
    if (unsigned w = lruBadWay(order, cfg_.assoc); w != cfg_.assoc) {
        fatal("checkpoint: cache '{}' set {}: way {} has recency rank {}; "
              "the set's {} valid ways must rank 0..{} once each",
              name_, base / cfg_.assoc, w, static_cast<unsigned>(order[w]),
              valid, valid - 1);
    }
}

void
Cache::checkRestoredLine(std::size_t i) const
{
    const Addr tag = tags_[i];
    if (tag == kAddrInvalid) {
        fatal("checkpoint: cache '{}' line {}: saved as live with the "
              "empty-way tag",
              name_, i);
    }
    const std::size_t base = i - i % cfg_.assoc;
    if (lineAddr(tag) != tag || setBase(tag) != base) {
        fatal("checkpoint: cache '{}' line {}: tag {:x} does not belong "
              "to set {}",
              name_, i, tag, base / cfg_.assoc);
    }
    for (std::size_t w = base; w < i; ++w) {
        if (tags_[w] == tag) {
            fatal("checkpoint: cache '{}' line {}: tag {:x} repeats line "
                  "{} of its set",
                  name_, i, tag, w);
        }
    }
}

double
Cache::occupancy() const
{
    std::uint64_t valid = 0;
    for (Addr tag : tags_)
        valid += tag != kAddrInvalid ? 1 : 0;
    return tags_.empty()
               ? 0.0
               : static_cast<double>(valid) /
                     static_cast<double>(tags_.size());
}

} // namespace dasdram
