#include "replacement_policy.hh"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/log.hh"

namespace dasdram
{

FastReplPolicy
parseFastReplPolicy(const std::string &name)
{
    if (name == "lru")
        return FastReplPolicy::Lru;
    if (name == "random")
        return FastReplPolicy::Random;
    if (name == "sequential")
        return FastReplPolicy::Sequential;
    if (name == "pseudorandom")
        return FastReplPolicy::PseudoRandom;
    fatal("unknown fast-slot replacement policy '{}'", name);
}

const char *
toString(FastReplPolicy p)
{
    switch (p) {
      case FastReplPolicy::Lru:
        return "lru";
      case FastReplPolicy::Random:
        return "random";
      case FastReplPolicy::Sequential:
        return "sequential";
      case FastReplPolicy::PseudoRandom:
        return "pseudorandom";
    }
    return "?";
}

FastSlotReplacement::FastSlotReplacement(FastReplPolicy policy,
                                         unsigned slots_per_group,
                                         std::uint64_t total_groups,
                                         std::uint64_t seed)
    : policy_(policy), slots_(slots_per_group),
      lastUse_(policy == FastReplPolicy::Lru ? total_groups * slots_ : 0),
      seqPtr_(policy == FastReplPolicy::Sequential ? total_groups : 0),
      rng_(seed)
{
    if (slots_ == 0)
        fatal("fast-slot replacement needs at least one slot per group");
}

void
FastSlotReplacement::onFastAccess(std::uint64_t group, unsigned slot)
{
    if (policy_ == FastReplPolicy::Lru)
        lastUse_.at(group * slots_ + slot) = ++stampCounter_;
}

unsigned
FastSlotReplacement::chooseVictim(std::uint64_t group)
{
    switch (policy_) {
      case FastReplPolicy::Lru: {
        const std::uint64_t base = group * slots_;
        unsigned victim = 0;
        std::uint64_t oldest = lastUse_[base];
        for (unsigned s = 1; s < slots_; ++s) {
            if (lastUse_[base + s] < oldest) {
                victim = s;
                oldest = lastUse_[base + s];
            }
        }
        return victim;
      }
      case FastReplPolicy::Random:
        return static_cast<unsigned>(rng_.nextBelow(slots_));
      case FastReplPolicy::Sequential: {
        std::uint8_t &ptr = seqPtr_.at(group);
        unsigned victim = ptr;
        ptr = static_cast<std::uint8_t>((ptr + 1) % slots_);
        return victim;
      }
      case FastReplPolicy::PseudoRandom:
        return static_cast<unsigned>(globalCounter_++ % slots_);
    }
    return 0;
}

namespace
{

/**
 * Zero-run code for a table whose untouched entries are 0 and whose
 * values never exceed @p top. Each token, of the table's own element
 * type, is either the next entry's value (t <= top) or a run of
 * t - top zero entries. A token covers at least one entry, so the
 * code is never longer than the table; trailing zeros are dropped.
 * With no token value above @p top, zeros are written as values.
 * Only allocated pages are read; the entries between them are zero.
 */
template <typename T>
std::vector<T>
zeroRunEncode(const ZeroPagedArray<T> &table, std::uint64_t top)
{
    const std::uint64_t t_max = std::numeric_limits<T>::max();
    const std::uint64_t max_run = top < t_max ? t_max - top : 0;
    std::vector<T> tokens;
    std::uint64_t run = 0, next = 0;
    table.forEachPage([&](std::uint64_t first, const T *entries,
                          std::uint64_t n) {
        run += first - next;
        next = first + n;
        for (std::uint64_t i = 0; i < n; ++i) {
            if (entries[i] == 0) {
                ++run;
                continue;
            }
            while (run > 0) {
                const std::uint64_t k = max_run ? std::min(run, max_run) : 1;
                tokens.push_back(static_cast<T>(max_run ? top + k : 0));
                run -= k;
            }
            tokens.push_back(entries[i]);
        }
    });
    return tokens;
}

/** Save or load @p table as its zero-run code (count, then the
 *  tokens in host byte order, as Archive's fields are). */
template <typename T>
void
serdeZeroRuns(Archive &ar, ZeroPagedArray<T> &table, std::uint64_t top,
              const char *what)
{
    std::vector<T> tokens;
    if (ar.saving())
        tokens = zeroRunEncode(table, top);
    std::uint64_t count = tokens.size();
    ar.io(count);
    if (ar.loading()) {
        if (count > table.size()) {
            fatal("checkpoint: fastRepl {}: {} tokens for {} entries", what,
                  count, table.size());
        }
        tokens.resize(static_cast<std::size_t>(count));
    }
    ar.blob(tokens.data(), tokens.size() * sizeof(T));
    if (ar.saving())
        return;
    table.reset();
    std::uint64_t pos = 0;
    for (T t : tokens) {
        const std::uint64_t k = t > top ? t - top : 1;
        if (k > table.size() - pos) {
            fatal("checkpoint: fastRepl {}: the token at entry {} covers "
                  "{} entries, past the table's {}",
                  what, pos, k, table.size());
        }
        if (t != 0 && t <= top)
            table.at(pos) = t;
        pos += k;
    }
}

} // namespace

void
FastSlotReplacement::serdeState(Archive &ar)
{
    ar.section("fastRepl");
    ar.io(stampCounter_);
    ar.io(globalCounter_);
    rng_.serdeState(ar);
    // Every stamp is at most the counter and every cursor is below
    // the slot count; larger token values encode the zero runs.
    serdeZeroRuns(ar, lastUse_, stampCounter_, "LRU stamps");
    serdeZeroRuns(ar, seqPtr_, slots_ - 1, "sequential cursors");
    ar.end();
}

} // namespace dasdram
