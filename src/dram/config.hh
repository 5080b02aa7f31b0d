/**
 * @file
 * DRAM device configuration: geometry, timing, refresh, and the
 * rowhammer disturbance model parameters.
 *
 * Defaults model the evaluation platform of the ANVIL paper: a 4 GB DDR3
 * module (2 ranks x 8 banks x 32768 rows x 8 KB rows) behind an Intel
 * i5-2540M (Sandy Bridge) at 2.6 GHz, with the paper's measured flip
 * thresholds (Table 1): 220 K total row accesses for double-sided
 * hammering, 400 K for single-sided.
 */
#ifndef ANVIL_DRAM_CONFIG_HH
#define ANVIL_DRAM_CONFIG_HH

#include <cstdint>

#include "common/types.hh"
#include "common/units.hh"

namespace anvil::dram {

/** Full configuration of the simulated DRAM subsystem. */
struct DramConfig {
    // -- Geometry ---------------------------------------------------------
    std::uint32_t channels = 1;
    std::uint32_t ranks_per_channel = 2;
    std::uint32_t banks_per_rank = 8;
    std::uint32_t rows_per_bank = 32768;
    std::uint32_t row_bytes = 8192;  ///< row (page) size, bytes

    // -- Timing (ticks = picoseconds) --------------------------------------
    /// Access that hits the open row in the row buffer (CAS only).
    Tick t_row_hit = ns(16.2);  // ~42 cycles @ 2.6 GHz
    /// Access that must (pre)activate the row. The paper's cost model uses
    /// "a DRAM access latency of 150 cycles" (Section 2.2).
    Tick t_row_miss = ns(57.7);  // 150 cycles @ 2.6 GHz

    // -- Refresh ------------------------------------------------------------
    /// Every row is refreshed once per refresh_period (64 ms for DDR3;
    /// vendors' rowhammer BIOS updates halve this to 32 ms).
    Tick refresh_period = ms(64);
    /// Number of REF commands per refresh period (DDR3: one per 7.8 us).
    std::uint32_t refresh_slots = 8192;
    /// Duration the device is busy servicing one REF command.
    Tick t_rfc = ns(260);

    // -- Disturbance (rowhammer) model --------------------------------------
    /// Minimum disturbance (weakest cells) that flips a bit within one
    /// refresh window. Calibrated so single-sided hammering needs 400 K
    /// activations of the one adjacent row (Table 1).
    std::uint64_t flip_threshold = 400000;
    /// Super-linear coupling when both neighbours hammer: disturbance is
    /// L + R + alpha * min(L, R). alpha is calibrated so double-sided
    /// hammering flips at 110 K activations per aggressor (220 K total):
    /// 110K * (2 + alpha) = 400K  =>  alpha = 400/110 - 2.
    double double_sided_alpha = 400.0 / 110.0 - 2.0;
    /// Relative disturbance contributed to rows at distance 2 (rows at
    /// distance 1 contribute 1.0). Real modules show a small second-
    /// neighbour effect; default keeps the model first-order.
    double second_neighbor_weight = 0.0;
    /// Per-row threshold variation: threshold(row) =
    /// flip_threshold * (1 + variation_spread * u(row)) with u deterministic
    /// in {0, 0.1, ..., 0.9}. One row in ten is maximally sensitive, which
    /// models the paper's "victim rows most sensitive to hammering".
    double variation_spread = 2.0;
    /// Seed mixed into the per-row threshold hash.
    std::uint64_t variation_seed = 0x5eedULL;
    /// Run the disturbance model on every activation. The model is a
    /// pure sink: nothing but the flip log (and the disturbance
    /// telemetry) reads it, so a run that never reads a flip may turn it
    /// off. DramSystem::flips() then throws; per-row thresholds
    /// (DisturbanceModel::threshold_of) stay available.
    bool model_disturbance = true;

    // -- Derived helpers ----------------------------------------------------
    std::uint32_t
    total_banks() const
    {
        return channels * ranks_per_channel * banks_per_rank;
    }

    std::uint64_t
    capacity_bytes() const
    {
        return static_cast<std::uint64_t>(total_banks()) * rows_per_bank *
               row_bytes;
    }

    /** Interval between REF commands (tREFI). */
    Tick
    t_refi() const
    {
        return refresh_period / refresh_slots;
    }

    /** Rows refreshed in each bank by one REF command. */
    std::uint32_t
    rows_per_ref() const
    {
        return (rows_per_bank + refresh_slots - 1) / refresh_slots;
    }
};

}  // namespace anvil::dram

#endif  // ANVIL_DRAM_CONFIG_HH
