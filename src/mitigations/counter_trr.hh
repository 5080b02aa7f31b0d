/**
 * @file
 * Parameterized per-bank counter-table TRR variants.
 *
 * Real DDR4/LPDDR4 TRR engines are not the idealized per-row counter of
 * hardware.hh: reverse-engineering efforts (TRRespass, U-TRR, and the
 * gem5 rowhammer models) consistently find a SMALL per-bank table of
 * activation counters — a sampler decides which activations are worth a
 * table entry, counters have a finite width, a full table evicts, and
 * counts are reset (or decayed) at refresh-window boundaries. Every one
 * of those resource limits is an attack surface: too few entries fall to
 * many-sided patterns, narrow counters saturate below the MAC, and
 * refresh-on-evict policies turn table pressure into refresh storms — a
 * performance attack that never hammers any single row.
 *
 * CounterTrr exposes all of those knobs so the mitigation matrix can
 * measure each failure mode against each attack kind.
 */
#ifndef ANVIL_MITIGATIONS_COUNTER_TRR_HH
#define ANVIL_MITIGATIONS_COUNTER_TRR_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "dram/dram_system.hh"
#include "mitigations/mitigation.hh"
#include "mitigations/tracker_table.hh"

namespace anvil::mitigations {

/** One counter-table TRR configuration (one reverse-engineered variant). */
struct CounterTrrConfig {
    /// Counter-table entries per bank.
    std::uint32_t table_size = 16;
    /// Counter width in bits; counters saturate at 2^bits - 1. A width
    /// whose maximum is below the MAC can never trigger a refresh — the
    /// classic mis-provisioned-TRR failure mode.
    std::uint32_t counter_bits = 24;
    /// Maximum activation count: reaching it refreshes the row's
    /// neighbours and re-arms the counter.
    std::uint64_t mac = 32000;

    /// What happens to tracked state at a refresh-window rollover.
    enum class Reset {
        kClear,  ///< drop every entry (per-window MAC, like the seed TRR)
        kHalve,  ///< halve counts, keep entries (decayed multi-window MAC)
    };
    Reset reset = Reset::kClear;

    /// Which entry a full table displaces for a new row.
    enum class Evict {
        kMinCount,  ///< lowest count, ties broken oldest-first
        kFifo,      ///< oldest entry regardless of count
    };
    Evict evict = Evict::kMinCount;

    /// Probability an activation of an untracked row allocates an entry
    /// (1.0 = track every new row; < 1.0 models sampler-based TRR).
    double sample_probability = 1.0;

    /// Refresh the evicted row's neighbours on displacement — the
    /// "paranoid evict" policy. Safe against eviction-laundering attacks
    /// but converts table thrash directly into refresh storms.
    bool refresh_on_evict = false;

    /// Neighbourhood radius of a triggered refresh: 1 covers classic
    /// hammering; 2 additionally covers aggressor-at-distance-2
    /// (half-double) patterns.
    std::uint32_t refresh_radius = 1;

    /** Largest value a counter can hold. */
    std::uint64_t
    counter_max() const
    {
        return counter_bits >= 64 ? ~0ULL : (1ULL << counter_bits) - 1;
    }
};

/** Finite counter-table TRR engine (one table per bank). */
class CounterTrr : public Mitigation
{
  public:
    /**
     * @param seed seeds the sampler; pass the trial's "mitigation"
     *        sub-stream so sampled variants stay deterministic per trial.
     */
    CounterTrr(dram::DramSystem &dram, const CounterTrrConfig &config,
               std::uint64_t seed);

    const char *name() const override { return "counter-trr"; }

    const CounterTrrConfig &config() const { return config_; }

    /** Current entry count of @p flat_bank's table (for tests). */
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
    CounterTrrConfig config_;
    Rng rng_;
    std::vector<TrackerTable<std::uint64_t>> tables_;  ///< per flat bank
};

}  // namespace anvil::mitigations

#endif  // ANVIL_MITIGATIONS_COUNTER_TRR_HH
