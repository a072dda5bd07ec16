#include "mshr.hh"

#include <algorithm>

#include "common/log.hh"

namespace dasdram
{

MshrFile::MshrFile(unsigned capacity, std::string name)
    : capacity_(capacity), statGroup_(std::move(name))
{
    statGroup_.addCounter("allocations", &allocations_);
    statGroup_.addCounter("coalesced", &coalesced_,
                          "misses merged into an outstanding fill");
    statGroup_.addHistogram("occupancy", &occupancy_,
                            "entries in use after each allocation");
}

void
MshrFile::allocate(Addr line)
{
    if (full())
        panic("MSHR allocate when full");
    auto [it, inserted] = entries_.try_emplace(line);
    if (!inserted)
        panic("MSHR allocate for already outstanding line {:x}", line);
    allocations_.inc();
    occupancy_.sample(entries_.size());
}

void
MshrFile::addWaiter(Addr line, Continuation w)
{
    auto it = entries_.find(line);
    if (it == entries_.end())
        panic("MSHR addWaiter without outstanding entry");
    it->second.push_back(w);
    coalesced_.inc();
}

void
MshrFile::complete(Addr line, Cycle tick)
{
    auto it = entries_.find(line);
    if (it == entries_.end())
        panic("MSHR complete without outstanding entry");
    std::vector<Continuation> waiters = std::move(it->second);
    entries_.erase(it);
    if (!dispatch_ && !waiters.empty())
        panic("MSHR complete with waiters but no dispatcher");
    for (const Continuation &w : waiters)
        dispatch_(w, line, tick);
}

void
MshrFile::serdeState(Archive &ar)
{
    ar.section("mshr");
    std::uint64_t n = entries_.size();
    ar.ioCount(n);
    if (ar.saving()) {
        std::vector<Addr> lines;
        lines.reserve(entries_.size());
        for (const auto &kv : entries_)
            lines.push_back(kv.first);
        std::sort(lines.begin(), lines.end());
        for (Addr line : lines) {
            ar.io(line);
            auto &waiters = entries_.at(line);
            std::uint64_t w = waiters.size();
            ar.ioCount(w);
            for (Continuation &c : waiters)
                c.serdeState(ar);
        }
    } else {
        entries_.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            Addr line = 0;
            ar.io(line);
            std::uint64_t w = 0;
            ar.ioCount(w);
            std::vector<Continuation> waiters(
                static_cast<std::size_t>(w));
            for (Continuation &c : waiters)
                c.serdeState(ar);
            entries_.emplace(line, std::move(waiters));
        }
    }
    ar.end();
}

} // namespace dasdram
