/**
 * @file
 * SPEC CPU2006 integer workload profiles.
 *
 * The paper evaluates ANVIL's false-positive rate and slowdown on the
 * SPEC2006 integer suite (Section 4.1). Real SPEC binaries and inputs are
 * not available here, so each benchmark is modelled as a synthetic access
 * generator whose *memory behaviour* is calibrated to the paper's
 * qualitative characterization:
 *
 *  - libquantum / omnetpp / mcf / xalancbmk cross the Stage-1 LLC-miss
 *    threshold in 95-99 % of 6 ms windows (Section 4.3);
 *  - h264ref / gobmk / sjeng / hmmer cross it in < 10 % of windows;
 *  - bzip2 and gcc exhibit occasional cache-set-conflict thrash phases
 *    (blocked compression / bursty compilation), which are the source of
 *    their comparatively high false-positive refresh rates (Table 4).
 *
 * The absolute SPEC scores are irrelevant to the reproduction; what the
 * experiments consume is each benchmark's LLC miss rate, its load/store
 * miss mix, and its DRAM row/bank locality statistics.
 */
#ifndef ANVIL_WORKLOAD_PROFILE_HH
#define ANVIL_WORKLOAD_PROFILE_HH

#include <cstdint>
#include <string>

#include "common/registry.hh"
#include "common/types.hh"
#include "common/units.hh"

namespace anvil::workload {

/** Tunable description of one benchmark's memory behaviour. */
struct SpecProfile {
    static constexpr const char *kind = "SPEC profile";

    std::string name;

    /// Total arena mapped by the benchmark.
    std::uint64_t arena_bytes = 64ULL << 20;
    /// Size of the frequently revisited (cache-resident) hot region.
    std::uint64_t hot_bytes = 1ULL << 20;
    /// Probability that a non-streaming access goes to the hot region.
    double hot_fraction = 0.9;
    /// Probability that an access advances the sequential stream pointer
    /// instead of drawing hot/cold.
    double stream_fraction = 0.0;
    /// Fraction of accesses that are stores.
    double store_fraction = 0.2;
    /// Mean compute cycles between memory operations (exponential jitter).
    Cycles think_cycles = 200;

    /// Rate of cache-set-conflict thrash phases (false-positive source).
    double thrash_phases_per_sec = 0.0;
    /// Duration of one thrash phase. Long enough by default to span a
    /// full Stage-1 + Stage-2 detection cycle (12 ms), as real conflict
    /// phases do.
    Tick thrash_duration = ms(12.0);
    /// Fraction of thrash phases that are full set sweeps missing on every
    /// access (the most intense kind).
    double thrash_burst_fraction = 0.2;
    /// Fraction that are full-speed two-line ping-pong phases; the rest
    /// are throttled ("weak") phases whose miss rate falls between the
    /// ANVIL-light and ANVIL-baseline Stage-1 thresholds.
    double thrash_strong_fraction = 0.4;

    std::uint64_t seed = 1;
};

/** The twelve SPEC2006 integer profiles used throughout the evaluation. */
const Registry<SpecProfile> &spec2006_int();

/** Looks a profile up by name. @throw std::out_of_range if unknown. */
inline const SpecProfile &
spec_profile(const std::string &name)
{
    return spec2006_int().at(name);
}

}  // namespace anvil::workload

#endif  // ANVIL_WORKLOAD_PROFILE_HH
