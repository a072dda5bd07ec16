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

    lineShift_ = log2Exact(cfg.lineBytes);
    setMask_ = cfg.numSets() - 1;
    const std::size_t n = cfg.numSets() * cfg.assoc;
    tags_.assign(n, kAddrInvalid);
    dirty_.assign(n, 0);
    stamps_.assign(n, 0);

    statGroup_.addCounter("hits", &hits_);
    statGroup_.addCounter("misses", &misses_);
    statGroup_.addCounter("evictions", &evictions_);
    statGroup_.addCounter("dirtyEvictions", &dirtyEvictions_);
}

std::size_t
Cache::find(Addr line) const
{
    const std::size_t base = setBase(line);
    const Addr *tags = &tags_[base];
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if (tags[w] == line)
            return base + w;
    }
    return kNoWay;
}

bool
Cache::access(Addr addr, bool is_write)
{
    const std::size_t i = find(lineAddr(addr));
    if (i != kNoWay) {
        stamps_[i] = ++stampCounter_;
        if (is_write)
            dirty_[i] = 1;
        hits_.inc();
        return true;
    }
    misses_.inc();
    return false;
}

bool
Cache::probe(Addr addr) const
{
    return find(lineAddr(addr)) != kNoWay;
}

Cache::Eviction
Cache::insert(Addr addr, bool dirty)
{
    Addr line = lineAddr(addr);
    Eviction ev;
    if (std::size_t i = find(line); i != kNoWay) {
        stamps_[i] = ++stampCounter_;
        dirty_[i] |= dirty ? 1 : 0;
        return ev;
    }

    const std::size_t base = setBase(line);
    std::size_t victim = kNoWay;
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if (tags_[base + w] == kAddrInvalid) {
            victim = base + w;
            break;
        }
    }
    if (victim == kNoWay) {
        if (cfg_.repl == CacheRepl::Random) {
            victim = base + rng_.nextBelow(cfg_.assoc);
        } else {
            victim = base;
            for (unsigned w = 1; w < cfg_.assoc; ++w) {
                if (stamps_[base + w] < stamps_[victim])
                    victim = base + w;
            }
        }
        ev.valid = true;
        ev.line = tags_[victim];
        ev.dirty = dirty_[victim] != 0;
        evictions_.inc();
        if (ev.dirty)
            dirtyEvictions_.inc();
    }

    tags_[victim] = line;
    dirty_[victim] = dirty ? 1 : 0;
    stamps_[victim] = ++stampCounter_;
    return ev;
}

bool
Cache::invalidate(Addr addr)
{
    const std::size_t i = find(lineAddr(addr));
    if (i == kNoWay)
        return false;
    bool was_dirty = dirty_[i] != 0;
    tags_[i] = kAddrInvalid;
    dirty_[i] = 0;
    return was_dirty;
}

void
Cache::serdeState(Archive &ar)
{
    // Only valid lines are saved, as (index, tag, dirty, stamp). An
    // empty way's dirty bit and stamp are never read: insert() fills
    // it before comparing stamps, and find() matches valid tags only.
    ar.section("cache");
    ar.io(stampCounter_);
    rng_.serdeState(ar);
    if (ar.loading()) {
        std::fill(tags_.begin(), tags_.end(), kAddrInvalid);
        std::fill(dirty_.begin(), dirty_.end(), 0);
        std::fill(stamps_.begin(), stamps_.end(), 0);
    }
    ar.liveEntries(
        tags_.size(), "cache '" + name_ + "' line",
        [this](auto &&entry) {
            for (std::size_t i = 0; i < tags_.size(); ++i)
                if (tags_[i] != kAddrInvalid)
                    entry(i);
        },
        [&](std::uint64_t i) {
            bool dirty = dirty_[i] != 0;
            ar.io(tags_[i]);
            ar.io(dirty);
            ar.io(stamps_[i]);
            if (ar.loading()) {
                dirty_[i] = dirty ? 1 : 0;
                checkRestoredLine(static_cast<std::size_t>(i));
            }
        });
    ar.end();
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
    if (stamps_[i] > stampCounter_) {
        fatal("checkpoint: cache '{}' line {}: stamp {} is newer than the "
              "stamp counter {}",
              name_, i, stamps_[i], stampCounter_);
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
