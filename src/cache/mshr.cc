#include "mshr.hh"

#include <algorithm>
#include <utility>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace dasdram
{

MshrFile::MshrFile(unsigned capacity, std::string name)
    : capacity_(capacity), lines_(capacity, kAddrInvalid),
      waiters_(capacity), statGroup_(std::move(name))
{
    // With no entry every miss waits for a free one forever.
    if (capacity == 0) {
        fatal("MSHR file '{}' has no entries (mshrsPerCore must be at "
              "least 1)",
              statGroup_.name());
    }
    // Load factor at most one half keeps probe chains short.
    const unsigned bits =
        std::max(2u, log2Ceil(2 * static_cast<std::uint64_t>(capacity)));
    index_.assign(std::size_t{1} << bits, kNone);
    indexMask_ = index_.size() - 1;
    indexShift_ = 64 - bits;
    clear();

    statGroup_.addCounter("allocations", &allocations_);
    statGroup_.addCounter("coalesced", &coalesced_,
                          "misses merged into an outstanding fill");
    statGroup_.addHistogram("occupancy", &occupancy_,
                            "entries in use after each allocation");
}

void
MshrFile::clear()
{
    std::fill(lines_.begin(), lines_.end(), kAddrInvalid);
    for (auto &w : waiters_)
        w.clear();
    std::fill(index_.begin(), index_.end(), kNone);
    // Slot 0 on top, so slots fill in index order.
    freeSlots_.clear();
    for (unsigned s = capacity_; s-- > 0;)
        freeSlots_.push_back(s);
    used_ = 0;
}

std::uint32_t
MshrFile::claimSlot(Addr line)
{
    const std::uint32_t s = freeSlots_.back();
    freeSlots_.pop_back();
    lines_[s] = line;
    std::size_t b = bucketOf(line);
    while (index_[b] != kNone)
        b = (b + 1) & indexMask_;
    index_[b] = s;
    ++used_;
    return s;
}

void
MshrFile::releaseSlot(std::uint32_t s)
{
    std::size_t hole = bucketOf(lines_[s]);
    while (index_[hole] != s)
        hole = (hole + 1) & indexMask_;
    // Backward-shift deletion: pull later members of the probe run
    // into the hole unless their home bucket lies cyclically in
    // (hole, b], so no lookup ever stops early at a gap.
    for (std::size_t b = (hole + 1) & indexMask_; index_[b] != kNone;
         b = (b + 1) & indexMask_) {
        const std::size_t home = bucketOf(lines_[index_[b]]);
        const bool stays = hole <= b ? (hole < home && home <= b)
                                     : (hole < home || home <= b);
        if (!stays) {
            index_[hole] = index_[b];
            hole = b;
        }
    }
    index_[hole] = kNone;
    lines_[s] = kAddrInvalid;
    freeSlots_.push_back(s);
    --used_;
}

void
MshrFile::allocate(Addr line)
{
    if (full())
        panic("MSHR allocate when full");
    if (line == kAddrInvalid)
        panic("MSHR allocate for the invalid line address");
    if (outstanding(line))
        panic("MSHR allocate for already outstanding line {:x}", line);
    claimSlot(line);
    allocations_.inc();
    occupancy_.sample(used_);
}

void
MshrFile::addWaiter(Addr line, Continuation w)
{
    const std::uint32_t s = findSlot(line);
    if (s == kNone)
        panic("MSHR addWaiter without outstanding entry");
    waiters_[s].push_back(w);
    coalesced_.inc();
}

void
MshrFile::complete(Addr line, Cycle tick)
{
    const std::uint32_t s = findSlot(line);
    if (s == kNone)
        panic("MSHR complete without outstanding entry");
    // The entry is gone before any waiter runs, so a waiter may
    // allocate again (even this slot); its vector is handed back
    // afterwards unless the slot has taken new waiters meanwhile.
    std::vector<Continuation> waiters;
    waiters.swap(waiters_[s]);
    releaseSlot(s);
    if (!dispatch_ && !waiters.empty())
        panic("MSHR complete with waiters but no dispatcher");
    for (const Continuation &w : waiters)
        dispatch_(w, line, tick);
    if (waiters_[s].empty()) {
        waiters.clear();
        waiters_[s].swap(waiters);
    }
}

std::size_t
MshrFile::waiterCount() const
{
    std::size_t n = 0;
    for (std::uint32_t s = 0; s < capacity_; ++s) {
        if (lines_[s] != kAddrInvalid)
            n += waiters_[s].size();
    }
    return n;
}

void
MshrFile::serdeState(Archive &ar)
{
    ar.section("mshr");
    std::uint64_t n = used_;
    ar.ioCount(n);
    if (ar.saving()) {
        std::vector<std::pair<Addr, std::uint32_t>> live;
        live.reserve(used_);
        for (std::uint32_t s = 0; s < capacity_; ++s) {
            if (lines_[s] != kAddrInvalid)
                live.emplace_back(lines_[s], s);
        }
        std::sort(live.begin(), live.end());
        for (auto [line, s] : live) {
            ar.io(line);
            std::uint64_t w = waiters_[s].size();
            ar.ioCount(w);
            for (Continuation &c : waiters_[s])
                c.serdeState(ar);
        }
    } else {
        if (n > capacity_) {
            fatal("checkpoint: MSHR file '{}' holds {} entries, over its "
                  "capacity of {}",
                  statGroup_.name(), n, capacity_);
        }
        clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            Addr line = 0;
            ar.io(line);
            if (line == kAddrInvalid) {
                fatal("checkpoint: MSHR file '{}' holds the invalid line "
                      "address",
                      statGroup_.name());
            }
            if (outstanding(line)) {
                fatal("checkpoint: MSHR file '{}' repeats line {:x}",
                      statGroup_.name(), line);
            }
            const std::uint32_t s = claimSlot(line);
            std::uint64_t w = 0;
            ar.ioCount(w);
            waiters_[s].resize(static_cast<std::size_t>(w));
            for (Continuation &c : waiters_[s])
                c.serdeState(ar);
        }
    }
    ar.end();
}

} // namespace dasdram
