/**
 * @file
 * Shared command-line interface of the sweep drivers (anvil-sim and the
 * reproduction benchmark's driver).
 *
 * Both accept the same sweep-control flags (documented in
 * EXPERIMENTS.md):
 *
 *   --jobs N           workers, <= UINT_MAX (default: one per hardware
 *                      thread)
 *   --master-seed N    seed root for all trials (default 0x5eed)
 *   --trials N         override each scenario's default trial count
 *   --json-out PATH    write the aggregated JSON report (PATH or "-")
 *   --replay-trial N   run only global trial N, serially (debugging)
 *   --trial-timeout N  per-trial simulated-event budget (0 = unlimited)
 *   --help             usage
 *
 * Unrecognized non-flag arguments are passed through as positionals: the
 * sweep name and the sweep's own arguments (e.g. seconds per cell).
 */
#ifndef ANVIL_RUNNER_OPTIONS_HH
#define ANVIL_RUNNER_OPTIONS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runner/sweep.hh"

namespace anvil::runner {

/** Parsed command line of a sweep driver. */
struct CliOptions {
    SweepOptions sweep;
    /// --trials override; 0 keeps each bench's default.
    std::uint64_t trials = 0;
    /// Non-flag arguments, in order.
    std::vector<std::string> positional;

    /** Trial count: the --trials override, else @p bench_default. */
    std::uint64_t
    trials_or(std::uint64_t bench_default) const
    {
        return trials != 0 ? trials : bench_default;
    }

    /**
     * Positional @p index parsed as a finite number > 0, else
     * @p fallback when absent.
     * @throw Error naming the index and text when the whole argument is
     *        not such a number.
     */
    double positional_double(std::size_t index, double fallback) const;

    /**
     * Parses argv. On --help prints usage (with @p extra_usage appended)
     * and exits 0; on a malformed flag prints usage and exits 2.
     */
    static CliOptions parse(int argc, char **argv,
                            const std::string &extra_usage = "");
};

}  // namespace anvil::runner

#endif  // ANVIL_RUNNER_OPTIONS_HH
