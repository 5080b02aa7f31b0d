/**
 * @file
 * Shared experiment apparatus for paper-reproduction scenarios: an
 * attacker process with a scanned buffer, weakest-victim target
 * selection, refresh-phase alignment, and the thrash-rate
 * importance-sampling boost. Scenarios, benches, examples, and tests all
 * share this one apparatus; a caller that wants a bare machine with an
 * attacker builds `mem::MemorySystem` (its PMU included) and `Attacker`,
 * in that order, and calls the free functions below.
 */
#ifndef ANVIL_SCENARIO_TESTBED_HH
#define ANVIL_SCENARIO_TESTBED_HH

#include <cstdint>
#include <optional>

#include "attack/hammer.hh"
#include "attack/memory_layout.hh"
#include "mem/memory_system.hh"
#include "scenario/spec.hh"
#include "workload/profile.hh"

namespace anvil::scenario {

/**
 * One attacker process on an existing machine: maps a
 * kDefaultAttackBufferBytes buffer and scans it through /proc/pagemap,
 * like a process that just started.
 */
struct Attacker {
    explicit Attacker(mem::MemorySystem &machine);

    Pid pid() const { return space->pid(); }

    mem::AddressSpace *space;
    Addr buffer;
    attack::MemoryLayout layout;
};

/** True if @p victim_row has the module's minimum flip threshold. */
bool is_weakest_victim(const mem::MemorySystem &machine,
                       std::uint32_t flat_bank, std::uint32_t victim_row);

/** First double-sided target whose victim is maximally sensitive. */
std::optional<attack::DoubleSidedTarget>
weakest_double_sided(mem::MemorySystem &machine, Attacker &attacker,
                     bool require_slice_compatible = false);

/** First single-sided target with a maximally sensitive victim. */
std::optional<attack::SingleSidedTarget>
weakest_single_sided(mem::MemorySystem &machine, Attacker &attacker);

/** First half-double target whose victim is maximally sensitive. */
std::optional<attack::HalfDoubleTarget>
weakest_half_double(mem::MemorySystem &machine, Attacker &attacker);

/** Advances the clock to just after @p victim_row's next refresh. */
void align_to_refresh(mem::MemorySystem &machine, std::uint32_t victim_row);

/**
 * Rate-boosted importance sampling for false-positive measurements.
 *
 * Benchmarks' conflict-thrash phases arrive as a Poisson process at
 * tenths of a hertz, with per-phase type fractions — far too rare to
 * observe in a few simulated seconds. Since each phase contributes
 * independently to the false-positive count, boosting the arrival rate
 * and dividing the measured rate by the boost is an unbiased estimator.
 * The boost targets the *rarest* phase component (e.g. gcc's occasional
 * bursts among its many weak phases) and is capped so phases stay
 * non-overlapping.
 *
 * @return the boost factor applied (divide measured rates by it).
 */
double boost_thrash_rate(workload::SpecProfile &profile,
                         double target_component_rate = 1.5,
                         double max_total_rate = 12.0);

}  // namespace anvil::scenario

#endif  // ANVIL_SCENARIO_TESTBED_HH
