#include "cache.hh"

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
    // Each line saves (tag, valid, dirty, stamp). Valid is derived
    // from the tag, so a loaded pair that disagrees is refused.
    ar.section("cache");
    ar.expectCount(tags_.size(), "cache lines");
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        bool valid = tags_[i] != kAddrInvalid;
        bool dirty = dirty_[i] != 0;
        ar.io(tags_[i]);
        ar.io(valid);
        ar.io(dirty);
        ar.io(stamps_[i]);
        if (ar.loading()) {
            if (valid != (tags_[i] != kAddrInvalid)) {
                fatal("checkpoint: cache '{}' line {}: saved valid={} "
                      "disagrees with tag {:x}",
                      name_, i, valid ? 1 : 0, tags_[i]);
            }
            dirty_[i] = dirty ? 1 : 0;
        }
    }
    ar.io(stampCounter_);
    rng_.serdeState(ar);
    ar.end();
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
