/**
 * @file
 * DAPPER-style performance-attack-resilient tracker.
 *
 * A tracker can be attacked two ways: route disturbance around its
 * bookkeeping (half-double vs aggressor-centric counters), or weaponize
 * its RESPONSE — force so many mitigation refreshes that memory
 * performance collapses without ever hammering a single row (PAPERS.md:
 * DAPPER). This tracker closes both channels:
 *
 *  - Tracking state is a Misra-Gries heavy-hitter summary per bank:
 *    untracked activations arriving at a full table DECREMENT every
 *    counter instead of evicting an entry. A tracker-thrash adversary
 *    cycling thousands of cold rows only drains counters — it cannot
 *    force refresh-generating evictions, and any genuinely hot row
 *    (activations > window / (table_size + 1)) is guaranteed a counter.
 *  - The response is budgeted: at most `refresh_budget` mitigation
 *    refreshes per tREFI. A triggered refresh beyond the budget is
 *    deferred (the counter stays armed and retries next interval), so
 *    the tracker's worst-case bandwidth cost is a hard bound, not a
 *    function of attacker behaviour.
 */
#ifndef ANVIL_MITIGATIONS_DAPPER_HH
#define ANVIL_MITIGATIONS_DAPPER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/dram_system.hh"
#include "mitigations/mitigation.hh"
#include "mitigations/tracker_table.hh"

namespace anvil::mitigations {

/** Configuration of the performance-attack-resilient tracker. */
struct DapperConfig {
    /// Misra-Gries summary entries per bank.
    std::uint32_t table_size = 16;
    /// Activation count that triggers a neighbourhood refresh.
    std::uint64_t mac = 32000;
    /// Mitigation refreshes allowed per tREFI across the device — the
    /// hard cap on the tracker's bandwidth cost.
    std::uint32_t refresh_budget = 4;
    /// Refresh radius 2 covers half-double's distance-2 blast radius.
    std::uint32_t refresh_radius = 2;
};

/** Misra-Gries summary + budgeted-response tracker. */
class Dapper : public Mitigation
{
  public:
    Dapper(dram::DramSystem &dram, const DapperConfig &config);

    const char *name() const override { return "dapper"; }

    const DapperConfig &config() const { return config_; }

    /** Current entry count of @p flat_bank's summary (for tests). */
    std::size_t table_occupancy(std::uint32_t flat_bank) const
    {
        return tables_.at(flat_bank).size();
    }

    /** Counter value of (@p flat_bank, @p row), or 0 if untracked. */
    std::uint64_t counter_of(std::uint32_t flat_bank,
                             std::uint32_t row) const
    {
        return tables_.at(flat_bank).value_of(row);
    }

  protected:
    void on_activation(std::uint32_t flat_bank, std::uint32_t row,
                       Tick now) override;

  private:
    /** True if a refresh is within budget at @p now (and charges it). */
    bool spend_budget(Tick now);

    DapperConfig config_;
    std::vector<TrackerTable<std::uint64_t>> tables_;  ///< per flat bank
    Tick t_refi_ = 0;
    std::uint64_t budget_window_ = 0;   ///< tREFI index of the budget
    std::uint32_t budget_spent_ = 0;    ///< refreshes in that window
};

}  // namespace anvil::mitigations

#endif  // ANVIL_MITIGATIONS_DAPPER_HH
