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
 * non-degenerate DRAM, tREFI above tRFC), the detector's windows,
 * miss threshold and sample rate, workload profile existence,
 * and the requirement rows of its run mode and each of its outputs
 * (hammer/pattern modes need exactly one tenant, an attacker;
 * kWorkloadOps at least one workload and no attacker; quota modes a
 * nonzero run.ops, kInterleaveFor a nonzero run.duration; outputs their
 * detector, attack, mitigation or workload tenant, and a run mode that
 * measures them).
 * @throw anvil::Error describing the first violation found.
 */
void validate(const ScenarioSpec &spec);

/**
 * Whether @p spec reads the DRAM's bit flips: its run mode stops at the
 * first flip, or one of its outputs reports flips. ScenarioBuilder runs
 * the disturbance model (dram::DramConfig::model_disturbance) only when
 * this holds; no other output can observe it.
 */
bool reads_flips(const ScenarioSpec &spec);

/**
 * Checks a whole sweep: non-empty named cell list, positive default
 * trial count, unique cell names, then validate() on every cell.
 * @throw anvil::Error describing the first violation found.
 */
void validate(const SweepSpec &spec);

}  // namespace anvil::scenario

#endif  // ANVIL_SCENARIO_VALIDATE_HH
