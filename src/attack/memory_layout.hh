/**
 * @file
 * The attacker's view of physical memory.
 *
 * Mirrors the published rowhammer attack implementations (paper Section
 * 2.3): the attacker mmaps a large buffer, uses /proc/pagemap to learn the
 * physical frame of every page, and from the reverse-engineered DRAM and
 * LLC mappings derives (a) aggressor/victim row triples for double-sided
 * hammering and (b) LLC eviction sets (same set, same slice) for the
 * CLFLUSH-free attack. The owned rows are one sorted vector searched by
 * bisection, not a node per page: the first VA scanned into a row wins.
 */
#ifndef ANVIL_ATTACK_MEMORY_LAYOUT_HH
#define ANVIL_ATTACK_MEMORY_LAYOUT_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/types.hh"
#include "dram/address_map.hh"
#include "mem/virtual_memory.hh"

namespace anvil::attack {

/** Aggressor pair sandwiching one victim row (double-sided hammering). */
struct DoubleSidedTarget {
    Addr low_aggressor_va = 0;   ///< VA mapping into row victim-1
    Addr high_aggressor_va = 0;  ///< VA mapping into row victim+1
    std::uint32_t flat_bank = 0;
    std::uint32_t victim_row = 0;
};

/** Aggressor plus a same-bank "row closer" (single-sided hammering). */
struct SingleSidedTarget {
    Addr aggressor_va = 0;
    Addr closer_va = 0;  ///< far row in the same bank, forces row close
    std::uint32_t flat_bank = 0;
    std::uint32_t aggressor_row = 0;
};

/**
 * Half-double layout around victim row v: the hammered aggressors sit at
 * DISTANCE 2 (rows v-2 and v+2), while the directly adjacent rows v-1
 * and v+1 are only touched occasionally — enough to keep their own
 * charge restored (and their activation counts under any tracker's MAC)
 * while the victim accumulates pure second-neighbour disturbance that
 * aggressor-centric trackers never attribute to it.
 */
struct HalfDoubleTarget {
    Addr far_low_va = 0;    ///< VA mapping into row v-2 (hammered)
    Addr near_low_va = 0;   ///< VA mapping into row v-1 (kept charged)
    Addr near_high_va = 0;  ///< VA mapping into row v+1 (kept charged)
    Addr far_high_va = 0;   ///< VA mapping into row v+2 (hammered)
    std::uint32_t flat_bank = 0;
    std::uint32_t victim_row = 0;
};

/// A flat map (flat_bank, row) -> one attacker VA whose page starts in
/// that row, sorted by key, one entry per row.
using RowIndex =
    std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>, Addr>>;

/**
 * Scans an attacker-owned buffer through pagemap and answers layout
 * queries. All knowledge used here is exactly what the paper's attacker
 * has: pagemap plus the reverse-engineered address mappings.
 */
class MemoryLayout
{
  public:
    MemoryLayout(const mem::AddressSpace &space,
                 const dram::AddressMap &dram_map,
                 const cache::CacheHierarchy &hierarchy);

    /** Indexes the pages of [va_base, va_base + bytes); first VA wins. */
    void scan(Addr va_base, std::uint64_t bytes);

    /**
     * Finds rows r such that the attacker owns pages in both r-1 and r+1
     * of the same bank, ordered by (bank, row).
     */
    std::vector<DoubleSidedTarget>
    find_double_sided_targets(std::size_t max_targets) const;

    /**
     * Finds aggressor rows paired with a same-bank closer row at least
     * @p min_row_gap rows away (so the closer never disturbs the
     * aggressor's victims).
     */
    std::vector<SingleSidedTarget>
    find_single_sided_targets(std::size_t max_targets,
                              std::uint32_t min_row_gap = 64) const;

    /**
     * Finds victims v such that the attacker owns pages in all four of
     * rows v-2, v-1, v+1, v+2 of the same bank (the half-double
     * sandwich), ordered by (bank, row).
     */
    std::vector<HalfDoubleTarget>
    find_half_double_targets(std::size_t max_targets) const;

    /**
     * Enumerates up to @p max_rows attacker VAs in DISTINCT (bank, row)
     * locations, keeping same-bank picks at least @p min_row_gap rows
     * apart so round-robin traffic over them exerts maximal unique-row
     * pressure on a tracker's tables while contributing near-zero
     * disturbance to any single victim (the tracker-thrash working set).
     */
    std::vector<Addr> find_thrash_rows(std::size_t max_rows,
                                       std::uint32_t min_row_gap = 3) const;

    /**
     * Builds an LLC eviction set for @p target_va: @p n_conflicts
     * attacker-owned line addresses that map to the same LLC set and slice
     * as the target but are different cache lines (and different DRAM
     * rows, so the conflicts never hammer the target's neighbourhood).
     *
     * @throw std::runtime_error if the scanned buffer is too small to
     *        supply enough conflicts.
     */
    std::vector<Addr> build_eviction_set(Addr target_va,
                                         std::size_t n_conflicts) const;

    /** Number of pages indexed by scan(). */
    std::size_t pages_scanned() const { return page_vas_.size(); }

  private:
    const mem::AddressSpace &space_;
    const dram::AddressMap &dram_map_;
    const cache::CacheHierarchy &hierarchy_;

    RowIndex rows_;
    std::vector<Addr> page_vas_;  ///< all scanned page base VAs
};

}  // namespace anvil::attack

#endif  // ANVIL_ATTACK_MEMORY_LAYOUT_HH
