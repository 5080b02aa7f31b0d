/**
 * @file
 * Build-time validation of declarative scenario and sweep specs.
 *
 * A bad machine config (non-power-of-two cache sets, a DRAM with zero
 * rows) or an inconsistent scenario (a hammer run mode with no attack,
 * a detector output with no detector) would otherwise surface deep in
 * construction as an assert or a null dereference, attributed to nothing.
 * validate() front-loads those checks and throws anvil::Error with the
 * scenario name and the offending field, so a misauthored spec fails with
 * an actionable message before any machine is built.
 *
 * run_sweep() validates the whole SweepSpec once up front;
 * ScenarioBuilder::build() re-validates its single cell so direct users
 * of the builder (tests, future drivers) get the same protection.
 */
#ifndef ANVIL_SCENARIO_VALIDATE_HH
#define ANVIL_SCENARIO_VALIDATE_HH

#include "scenario/spec.hh"

namespace anvil::scenario {

/**
 * Checks one scenario cell: machine geometry (power-of-two cache sets,
 * non-degenerate DRAM), run-mode requirements (hammer/pattern modes need
 * an attack, quota modes a nonzero run.ops, kInterleaveFor a nonzero
 * run.duration), workload profile existence, and output/detector
 * consistency.
 * @throw anvil::Error describing the first violation found.
 */
void validate(const ScenarioSpec &spec);

/**
 * Checks a whole sweep: non-empty named cell list, positive default
 * trial count, unique cell names, then validate() on every cell.
 * @throw anvil::Error describing the first violation found.
 */
void validate(const SweepSpec &spec);

}  // namespace anvil::scenario

#endif  // ANVIL_SCENARIO_VALIDATE_HH
