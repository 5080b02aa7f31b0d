#include "attack/memory_layout.hh"

#include <algorithm>
#include <stdexcept>

namespace anvil::attack {
namespace {

using Key = std::pair<std::uint32_t, std::uint32_t>;
constexpr auto kKey = &RowIndex::value_type::first;

/// The VA indexed for @p key, or kInvalidAddr.
Addr
va_of(const RowIndex &rows, Key key)
{
    const auto it = std::ranges::lower_bound(rows, key, {}, kKey);
    return it != rows.end() && it->first == key ? it->second : kInvalidAddr;
}

}  // namespace

MemoryLayout::MemoryLayout(const mem::AddressSpace &space,
                           const dram::AddressMap &dram_map,
                           const cache::CacheHierarchy &hierarchy)
    : space_(space), dram_map_(dram_map), hierarchy_(hierarchy)
{
}

void
MemoryLayout::scan(Addr va_base, std::uint64_t bytes)
{
    scanned_.emplace_back(va_base, bytes);
    for (Addr va = va_base; va < va_base + bytes; va += mem::kPageBytes) {
        const Addr frame = space_.pagemap(va);
        if (frame == kInvalidAddr)
            continue;
        const dram::DramCoord coord = dram_map_.decode(frame);
        const Key key{dram_map_.flat_bank(coord), coord.row};
        // Consecutive pages mostly share a row: keep the first of a run.
        if (rows_.empty() || rows_.back().first != key)
            rows_.emplace_back(key, va);
        ++pages_scanned_;
    }
    // The stable sort keeps equal keys in scan order, so the first VA
    // scanned into a row wins, as with earlier calls' rows.
    std::ranges::stable_sort(rows_, {}, kKey);
    const auto repeats = std::ranges::unique(rows_, {}, kKey);
    rows_.erase(repeats.begin(), repeats.end());
}

std::vector<DoubleSidedTarget>
MemoryLayout::find_double_sided_targets(std::size_t max_targets) const
{
    std::vector<DoubleSidedTarget> targets;
    for (const auto &[key, va] : rows_) {
        if (targets.size() >= max_targets)
            break;
        const auto [bank, row] = key;
        // va is in row `row`; check for an owned page two rows up, which
        // sandwiches victim row `row + 1`.
        const Addr high = va_of(rows_, {bank, row + 2});
        if (high == kInvalidAddr)
            continue;
        targets.push_back(DoubleSidedTarget{va, high, bank, row + 1});
    }
    return targets;
}

std::vector<SingleSidedTarget>
MemoryLayout::find_single_sided_targets(std::size_t max_targets,
                                        std::uint32_t min_row_gap) const
{
    std::vector<SingleSidedTarget> targets;
    for (const auto &[key, va] : rows_) {
        if (targets.size() >= max_targets)
            break;
        const auto [bank, row] = key;
        // The first owned row in the same bank far enough away acts as
        // the row-closer.
        const auto it = std::ranges::lower_bound(
            rows_, Key{bank, row + min_row_gap}, {}, kKey);
        if (it != rows_.end() && it->first.first == bank)
            targets.push_back(SingleSidedTarget{va, it->second, bank, row});
    }
    return targets;
}

std::vector<HalfDoubleTarget>
MemoryLayout::find_half_double_targets(std::size_t max_targets) const
{
    std::vector<HalfDoubleTarget> targets;
    for (const auto &[key, va] : rows_) {
        if (targets.size() >= max_targets)
            break;
        const auto [bank, row] = key;
        // va is in row `row` = v-2; the sandwich needs v-1, v+1, v+2
        // owned too (v itself need not be — the victim is someone
        // else's data, which is the point of the attack).
        const Addr near_low = va_of(rows_, {bank, row + 1});
        const Addr near_high = va_of(rows_, {bank, row + 3});
        const Addr far_high = va_of(rows_, {bank, row + 4});
        if (near_low == kInvalidAddr || near_high == kInvalidAddr ||
            far_high == kInvalidAddr)
            continue;
        targets.push_back(HalfDoubleTarget{va, near_low, near_high, far_high,
                                           bank, row + 2});
    }
    return targets;
}

std::vector<Addr>
MemoryLayout::find_thrash_rows(std::size_t max_rows,
                               std::uint32_t min_row_gap) const
{
    std::vector<Addr> rows;
    bool have_last = false;
    std::uint32_t last_bank = 0;
    std::uint32_t last_row = 0;
    for (const auto &[key, va] : rows_) {
        if (rows.size() >= max_rows)
            break;
        const auto [bank, row] = key;
        // Spacing keeps picked rows out of each other's blast radius:
        // the thrash traffic stresses tracker tables, not DRAM cells.
        if (have_last && bank == last_bank && row < last_row + min_row_gap)
            continue;
        rows.push_back(va);
        have_last = true;
        last_bank = bank;
        last_row = row;
    }
    return rows;
}

std::vector<Addr>
MemoryLayout::build_eviction_set(Addr target_va,
                                 std::size_t n_conflicts) const
{
    const Addr target_pa = space_.translate(target_va);
    if (target_pa == kInvalidAddr)
        throw std::runtime_error("eviction target is unmapped");
    const std::uint32_t want_set = hierarchy_.llc_set(target_pa);
    const std::uint32_t want_slice = hierarchy_.llc_slice(target_pa);
    const std::uint32_t target_row = dram_map_.decode(target_pa).row;
    const std::uint32_t target_bank =
        dram_map_.flat_bank(dram_map_.decode(target_pa));

    // Frames are page-aligned, so only every step-th line of a page can
    // share the target's set-index bits: one line on a 64+-set slice.
    const std::uint32_t step =
        cache::kLineBytes * std::min(hierarchy_.config().llc_sets_per_slice,
                                     mem::kPageBytes / cache::kLineBytes);
    std::vector<Addr> conflicts;
    const auto add_conflicts = [&](Addr page_va, Addr frame) {
        for (std::uint32_t off = want_set * cache::kLineBytes % step;
             off < mem::kPageBytes && conflicts.size() < n_conflicts;
             off += step) {
            const Addr pa = frame + off;
            if (cache::line_of(pa) == cache::line_of(target_pa))
                continue;
            if (hierarchy_.llc_set(pa) != want_set ||
                hierarchy_.llc_slice(pa) != want_slice) {
                continue;
            }
            // Skip conflicts living near the target's DRAM row so the
            // eviction traffic itself cannot disturb the intended victim.
            const dram::DramCoord coord = dram_map_.decode(pa);
            if (dram_map_.flat_bank(coord) == target_bank &&
                coord.row + 4 >= target_row && coord.row <= target_row + 4) {
                continue;
            }
            conflicts.push_back(page_va + off);
        }
    };
    // The scanned pages in scan order, skipping unmapped ones as scan()
    // does.
    for (const auto &[va_base, bytes] : scanned_) {
        for (Addr va = va_base;
             va < va_base + bytes && conflicts.size() < n_conflicts;
             va += mem::kPageBytes) {
            const Addr frame = space_.pagemap(va);
            if (frame != kInvalidAddr)
                add_conflicts(va, frame);
        }
    }
    if (conflicts.size() < n_conflicts) {
        throw std::runtime_error(
            "buffer too small to build eviction set: found " +
            std::to_string(conflicts.size()) + " of " +
            std::to_string(n_conflicts));
    }
    return conflicts;
}

}  // namespace anvil::attack
