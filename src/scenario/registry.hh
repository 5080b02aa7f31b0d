/**
 * @file
 * Named registry of scenario sweeps, so one driver binary (anvil-sim)
 * can list, run, and print every paper table/figure.
 */
#ifndef ANVIL_SCENARIO_REGISTRY_HH
#define ANVIL_SCENARIO_REGISTRY_HH

#include <functional>
#include <string>

#include "common/registry.hh"
#include "runner/options.hh"
#include "scenario/spec.hh"

namespace anvil::scenario {

/**
 * Builds a SweepSpec from the parsed CLI options. A factory rather than
 * a stored spec because some sweeps take positional parameters (run
 * seconds, operation counts) that scale their cells.
 */
struct SweepFactory {
    static constexpr const char *kind = "scenario sweep";

    std::string name;
    std::string description;
    /// Positional-argument usage appended to the driver's help line,
    /// e.g. "[run_seconds]"; empty when the sweep takes none.
    std::string usage;
    std::function<SweepSpec(const runner::CliOptions &)> make;
};

/** Ordered, named collection of sweep factories. */
using ScenarioRegistry = Registry<SweepFactory>;

/**
 * The registry of every paper table/figure sweep (populated by
 * catalog.cc). Singleton so the driver, perfbench and the tests share
 * one list.
 */
const ScenarioRegistry &paper_registry();

}  // namespace anvil::scenario

#endif  // ANVIL_SCENARIO_REGISTRY_HH
