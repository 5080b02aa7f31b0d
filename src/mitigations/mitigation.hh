/**
 * @file
 * The common interface of every in-DRAM / in-controller rowhammer
 * tracker the simulator can attach to a DramSystem.
 *
 * A Mitigation is its device's activation observer: it sees every row
 * activation and issues neighbour (or victim) refreshes in
 * response. Refresh reads are absorbed into controller slack: they
 * consume no core time (the cost of these defenses is new silicon, not
 * software cycles), only DRAM state changes — which is exactly why the
 * paper's Section 1.2 classifies them as undeployable on existing
 * hardware.
 *
 * Derived trackers implement on_activation(); the base class owns the
 * device attachment (attach on construction, detach on destruction), the
 * self-recursion guard (a tracker's own refresh reads re-enter the
 * activation path and must not re-trigger it), and the statistics block.
 */
#ifndef ANVIL_MITIGATIONS_MITIGATION_HH
#define ANVIL_MITIGATIONS_MITIGATION_HH

#include <cstdint>

#include "common/types.hh"
#include "dram/dram_system.hh"

namespace anvil::mitigations {

/** Counters shared by all hardware trackers. */
struct MitigationStats {
    /// Row activations seen by the tracker (its own refreshes excluded).
    std::uint64_t activations_observed = 0;
    /// Refresh reads the tracker issued (neighbour or victim rows).
    std::uint64_t neighbor_refreshes = 0;
    /// Entries displaced from a finite tracking table (0 for trackers
    /// with unbounded state such as the idealized seed TRR).
    std::uint64_t table_evictions = 0;
    /// Refreshes clipped by a rate budget (DAPPER-style trackers).
    std::uint64_t refreshes_suppressed = 0;
    /// High-water occupancy of the fullest per-bank table.
    std::uint64_t table_peak_entries = 0;
};

/**
 * Base class of every hardware rowhammer tracker.
 *
 * Construct it before issuing traffic. A device takes one tracker (real
 * controllers run one TRR engine); a second throws std::logic_error. The
 * device may outlive its tracker and then runs untracked.
 */
class Mitigation : private dram::ActivationObserver
{
  public:
    explicit Mitigation(dram::DramSystem &dram);
    virtual ~Mitigation() { dram_.detach(*this); }

    Mitigation(const Mitigation &) = delete;
    Mitigation &operator=(const Mitigation &) = delete;

    /** Tracker name for reports (matches its registry key). */
    virtual const char *name() const = 0;

    const MitigationStats &stats() const { return stats_; }

  protected:
    /**
     * Reacts to one observed activation of @p row in @p flat_bank.
     * Never invoked re-entrantly: activations caused by this tracker's
     * own refresh reads are filtered out before dispatch.
     */
    virtual void on_activation(std::uint32_t flat_bank, std::uint32_t row,
                               Tick now) = 0;

    /**
     * Issues one guarded refresh read of (@p flat_bank, @p row),
     * counting it in stats. Out-of-range rows are ignored (callers pass
     * signed neighbour offsets freely at bank edges).
     */
    void refresh_row(std::uint32_t flat_bank, std::int64_t row, Tick now);

    /**
     * Refreshes every row within @p radius of @p row (excluding the row
     * itself), nearest first, low side before high side — the classic
     * TRR victim-refresh response.
     */
    void refresh_neighbors(std::uint32_t flat_bank, std::uint32_t row,
                           Tick now, std::uint32_t radius = 1);

    dram::DramSystem &dram_;
    MitigationStats stats_;

  private:
    /** Filters the tracker's own refreshes, counts, and dispatches. */
    void on_activate(std::uint32_t flat_bank, std::uint32_t row,
                     Tick now) final;

    bool in_refresh_ = false;  ///< guards against self-recursion
};

}  // namespace anvil::mitigations

#endif  // ANVIL_MITIGATIONS_MITIGATION_HH
