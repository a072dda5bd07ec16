#include "translation_table.hh"

#include <algorithm>
#include <numeric>

#include "common/log.hh"

namespace dasdram
{

TranslationTable::TranslationTable(const AsymmetricLayout &layout)
    : layout_(&layout), groupSize_(layout.groupSize())
{
    if (groupSize_ > 256)
        fatal("migration groups above 256 rows need multi-byte entries");
    reset();
}

void
TranslationTable::reset()
{
    std::uint64_t total =
        layout_->totalGroups() * static_cast<std::uint64_t>(groupSize_);
    perm_.assign(total, 0);
    inverse_.assign(total, 0);
    for (std::uint64_t g = 0; g < layout_->totalGroups(); ++g) {
        std::uint8_t *p = &perm_[g * groupSize_];
        std::uint8_t *inv = &inverse_[g * groupSize_];
        for (unsigned s = 0; s < groupSize_; ++s) {
            p[s] = static_cast<std::uint8_t>(s);
            inv[s] = static_cast<std::uint8_t>(s);
        }
    }
    swaps_ = 0;
}

std::uint64_t
TranslationTable::groupIndex(GlobalRowId row) const
{
    return row / groupSize_;
}

GlobalRowId
TranslationTable::physicalOf(GlobalRowId logical) const
{
    std::uint64_t g = groupIndex(logical);
    unsigned slot = static_cast<unsigned>(logical % groupSize_);
    return g * groupSize_ + perm_[g * groupSize_ + slot];
}

GlobalRowId
TranslationTable::logicalOf(GlobalRowId physical) const
{
    std::uint64_t g = groupIndex(physical);
    unsigned slot = static_cast<unsigned>(physical % groupSize_);
    return g * groupSize_ + inverse_[g * groupSize_ + slot];
}

bool
TranslationTable::isFast(GlobalRowId logical) const
{
    std::uint64_t g = groupIndex(logical);
    unsigned slot = static_cast<unsigned>(logical % groupSize_);
    return layout_->slotIsFast(perm_[g * groupSize_ + slot]);
}

void
TranslationTable::swap(GlobalRowId logical_a, GlobalRowId logical_b)
{
    std::uint64_t g = groupIndex(logical_a);
    if (g != groupIndex(logical_b))
        panic("translation swap across migration groups");
    if (logical_a == logical_b)
        return;
    unsigned sa = static_cast<unsigned>(logical_a % groupSize_);
    unsigned sb = static_cast<unsigned>(logical_b % groupSize_);
    std::uint8_t *p = &perm_[g * groupSize_];
    std::uint8_t *inv = &inverse_[g * groupSize_];
    std::swap(p[sa], p[sb]);
    inv[p[sa]] = static_cast<std::uint8_t>(sa);
    inv[p[sb]] = static_cast<std::uint8_t>(sb);
    ++swaps_;
}

GlobalRowId
TranslationTable::logicalInFastSlot(std::uint64_t group,
                                    unsigned fast_slot) const
{
    if (fast_slot >= layout_->fastSlotsPerGroup())
        panic("fast slot index out of range");
    return group * groupSize_ + inverse_[group * groupSize_ + fast_slot];
}

void
TranslationTable::serdeState(Archive &ar)
{
    ar.section("transTable");
    if (ar.loading())
        reset();
    ar.liveEntries(
        layout_->totalGroups(), "translation-table group",
        [this](std::uint64_t g) {
            // A permutation is sorted only when it is the identity.
            const std::uint8_t *p = &perm_[g * groupSize_];
            return !std::is_sorted(p, p + groupSize_);
        },
        [&](std::uint64_t g) {
            std::uint8_t *p = &perm_[g * groupSize_];
            ar.blob(p, groupSize_);
            if (ar.loading())
                restoreInverse(g);
        });
    ar.io(swaps_);
    ar.end();
}

void
TranslationTable::restoreInverse(std::uint64_t g)
{
    const std::uint8_t *p = &perm_[g * groupSize_];
    std::uint8_t *inv = &inverse_[g * groupSize_];
    std::vector<bool> seen(groupSize_, false);
    for (unsigned s = 0; s < groupSize_; ++s) {
        if (p[s] >= groupSize_ || seen[p[s]]) {
            fatal("checkpoint: translation-table group {}: slot {} maps to "
                  "{}, so the group is not a permutation of 0..{}",
                  g, s, unsigned{p[s]}, groupSize_ - 1);
        }
        seen[p[s]] = true;
        inv[p[s]] = static_cast<std::uint8_t>(s);
    }
}

} // namespace dasdram
