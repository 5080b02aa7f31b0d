/**
 * @file
 * RVC-style victim-centric rowhammer tracker.
 *
 * Aggressor-centric counters (TRR and its variants) count who hammers
 * and guess who suffers — which is exactly what half-double breaks: the
 * hammered rows' distance-1 neighbours get refreshed while the real
 * victim two rows away keeps discharging. The victim-centric approach
 * (PAPERS.md: "Rapid Victim Identification", RVC) inverts the ledger:
 * each activation credits estimated disturbance to the rows it actually
 * disturbs (distance 1 at full weight, distance 2 at the module's
 * second-neighbour weight), and a victim crossing its charge budget is
 * refreshed DIRECTLY — no neighbourhood guessing, so blast-radius
 * changes cannot route around it.
 */
#ifndef ANVIL_MITIGATIONS_RVC_HH
#define ANVIL_MITIGATIONS_RVC_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/dram_system.hh"
#include "mitigations/mitigation.hh"
#include "mitigations/tracker_table.hh"

namespace anvil::mitigations {

/** Configuration of the victim-centric tracker. */
struct RvcConfig {
    /// Victim-counter entries per bank.
    std::uint32_t table_size = 32;
    /// Accumulated disturbance credit at which the victim is refreshed.
    /// The credit omits the super-linear double-sided term, so with the
    /// paper's alpha the true disturbance is at most ~1.82x the credit;
    /// the default keeps even that bound far below every module's flip
    /// threshold.
    double threshold = 50000.0;
    /// Disturbance credited to distance-2 victims per activation
    /// (distance-1 victims are credited 1.0). Matches the device's
    /// second_neighbor_weight when modelling a co-designed tracker.
    double second_neighbor_weight = 0.5;
};

/** Victim-centric disturbance-credit tracker (one table per bank). */
class Rvc : public Mitigation
{
  public:
    Rvc(dram::DramSystem &dram, const RvcConfig &config);

    const char *name() const override { return "rvc"; }

    const RvcConfig &config() const { return config_; }

    /** Current entry count of @p flat_bank's table (for tests). */
    std::size_t table_occupancy(std::uint32_t flat_bank) const
    {
        return tables_.at(flat_bank).size();
    }

    /** Charge credited to (@p flat_bank, @p row), or 0 if untracked. */
    double charge_of(std::uint32_t flat_bank, std::uint32_t row) const
    {
        return tables_.at(flat_bank).value_of(row);
    }

  protected:
    void on_activation(std::uint32_t flat_bank, std::uint32_t row,
                       Tick now) override;

  private:
    /** Credits @p weight of disturbance to victim @p row. */
    void credit(std::uint32_t flat_bank, std::int64_t row, double weight,
                Tick now);

    RvcConfig config_;
    std::vector<TrackerTable<double>> tables_;  ///< one per flat bank
};

}  // namespace anvil::mitigations

#endif  // ANVIL_MITIGATIONS_RVC_HH
