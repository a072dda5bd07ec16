#include "translation_table.hh"

#include <algorithm>

#include "common/log.hh"

namespace dasdram
{

TranslationTable::TranslationTable(const AsymmetricLayout &layout)
    : layout_(&layout), groupSize_(layout.groupSize()),
      groupMask_(groupSize_ - 1),
      perm_(layout.totalGroups() * groupSize_),
      inverse_(layout.totalGroups() * groupSize_)
{
    if (groupSize_ > 256)
        fatal("migration groups above 256 rows need multi-byte entries");
    if (!isPowerOfTwo(groupSize_))
        fatal("migration groups of {} rows: the translation table needs "
              "a power of two",
              groupSize_);
}

// A group of up to 256 aligned entries never straddles a page.
static_assert(ZeroPagedArray<std::uint8_t>::kPageEntries % 256 == 0);

void
TranslationTable::reset()
{
    perm_.reset();
    inverse_.reset();
    swaps_ = 0;
}

void
TranslationTable::swap(GlobalRowId logical_a, GlobalRowId logical_b)
{
    if ((logical_a ^ logical_b) > groupMask_)
        panic("translation swap across migration groups");
    if (logical_a == logical_b)
        return;
    // Both rows, and the physical slots they occupy, are in one group,
    // whose entries are contiguous on one page of each array. Within
    // it a row's distance is its slot's: the group bits cancel.
    const GlobalRowId base = logical_a & ~groupMask_;
    std::uint8_t *perm = &perm_.at(base);
    std::uint8_t *inv = &inverse_.at(base);
    const unsigned sa = static_cast<unsigned>(logical_a & groupMask_);
    const unsigned sb = static_cast<unsigned>(logical_b & groupMask_);
    const unsigned pa = sa ^ perm[sa];
    const unsigned pb = sb ^ perm[sb];
    perm[sa] = static_cast<std::uint8_t>(sa ^ pb);
    perm[sb] = static_cast<std::uint8_t>(sb ^ pa);
    inv[pb] = static_cast<std::uint8_t>(pb ^ sa);
    inv[pa] = static_cast<std::uint8_t>(pa ^ sb);
    ++swaps_;
}

GlobalRowId
TranslationTable::logicalInFastSlot(std::uint64_t group,
                                    unsigned fast_slot) const
{
    if (fast_slot >= layout_->fastSlotsPerGroup())
        panic("fast slot index out of range");
    return logicalOf(group * groupSize_ + fast_slot);
}

void
TranslationTable::serdeState(Archive &ar)
{
    ar.section("transTable");
    if (ar.loading())
        reset();
    ar.liveEntries(
        layout_->totalGroups(), "translation-table group",
        [this](auto &&entry) {
            // A group differs from the identity iff an entry is
            // non-zero, and only written pages can hold one. A page
            // holds whole groups: both sizes are powers of two.
            perm_.forEachPage([&](std::uint64_t first,
                                  const std::uint8_t *d, std::uint64_t n) {
                for (std::uint64_t s = 0; s < n; s += groupSize_) {
                    if (std::any_of(d + s, d + s + groupSize_,
                                    [](std::uint8_t x) { return x != 0; }))
                        entry((first + s) / groupSize_);
                }
            });
        },
        [&](std::uint64_t g) { serdeGroup(ar, g); });
    ar.io(swaps_);
    ar.end();
}

void
TranslationTable::serdeGroup(Archive &ar, std::uint64_t g)
{
    const GlobalRowId base = g * groupSize_;
    std::uint8_t phys[256];
    if (ar.saving()) {
        for (unsigned s = 0; s < groupSize_; ++s)
            phys[s] = static_cast<std::uint8_t>(s ^ perm_[base + s]);
    }
    ar.blob(phys, groupSize_);
    if (ar.saving())
        return;
    std::uint8_t *perm = &perm_.at(base);
    std::uint8_t *inv = &inverse_.at(base);
    bool seen[256] = {};
    for (unsigned s = 0; s < groupSize_; ++s) {
        if (phys[s] >= groupSize_ || seen[phys[s]]) {
            fatal("checkpoint: translation-table group {}: slot {} maps to "
                  "{}, so the group is not a permutation of 0..{}",
                  g, s, unsigned{phys[s]}, groupSize_ - 1);
        }
        seen[phys[s]] = true;
        perm[s] = static_cast<std::uint8_t>(s ^ phys[s]);
        inv[phys[s]] = static_cast<std::uint8_t>(s ^ phys[s]);
    }
}

} // namespace dasdram
