/**
 * @file
 * perfbench-driver: runs one registered sweep in-process through the
 * public entry points anvil-sim uses (paper_registry(), runner::Sweep,
 * ScenarioBuilder::build/run/emit), writes the same anvil-sweep-v1
 * report, and prints the sweep's host-cost measurements as JSON on
 * stdout.
 *
 *   perfbench-driver [--trace] SWEEP [sweep args] [runner flags]
 *
 * The sweep arguments and runner flags are anvil-sim's (--jobs,
 * --master-seed, --trials, --json-out, ...). With --trace every trial
 * also replays its access stream into each layer after emit() and the
 * output gains a "layers" object; the report is unchanged either way.
 * Exit code: the sweep's runner::ExitCode, as anvil-sim returns it.
 */
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hh"
#include "runner/json.hh"
#include "runner/options.hh"
#include "runner/sweep.hh"
#include "scenario/registry.hh"
#include "scenario/validate.hh"
#include "trial.hh"

using namespace anvil;
using Clock = std::chrono::steady_clock;

namespace {

double
seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
cpu_seconds(const rusage &u)
{
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

/** What the trials report back, summed under a lock (trials may run
 *  on several pool threads). */
struct SweepTotals {
    std::mutex mutex;
    perfbench::TrialSpans spans;
    perfbench::LayerTotals layers;
    double trial_s = 0.0;  ///< host seconds inside trial bodies
};

}  // namespace

int
main(int argc, char **argv)
{
    // --trace is ours; CliOptions::parse rejects flags it does not know.
    bool traced = false;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0)
            traced = true;
        else
            args.push_back(argv[i]);
    }
    runner::CliOptions cli = runner::CliOptions::parse(
        static_cast<int>(args.size()), args.data(),
        "  positional: scenario sweep name, then the sweep's arguments\n"
        "  --trace            replay each trial into every layer\n");
    if (cli.positional.empty()) {
        std::fprintf(stderr, "perfbench-driver: expected a sweep name\n");
        return runner::kExitUsage;
    }
    const std::string name = cli.positional.front();
    cli.positional.erase(cli.positional.begin());

    const Clock::time_point start = Clock::now();
    rusage usage_start{};
    getrusage(RUSAGE_SELF, &usage_start);

    const scenario::SweepFactory *factory =
        scenario::paper_registry().find(name);
    if (factory == nullptr) {
        std::fprintf(stderr, "perfbench-driver: unknown sweep '%s'\n",
                     name.c_str());
        return runner::kExitUsage;
    }

    SweepTotals totals;
    scenario::SweepSpec spec;
    try {
        spec = factory->make(cli);
        scenario::validate(spec);
    } catch (const Error &e) {
        std::fprintf(stderr, "perfbench-driver: %s\n", e.what());
        return runner::kExitUsage;
    }

    // The same sweep scenario::make_sweep() registers, with the trial
    // body's phases timed.
    cli.sweep.name = spec.name;
    runner::Sweep sweep(cli.sweep);
    for (const scenario::ScenarioSpec &cell : spec.cells) {
        const std::uint64_t trials =
            cell.fixed_trials != 0 ? cell.fixed_trials
                                   : cli.trials_or(spec.default_trials);
        sweep.add_scenario(
            cell.name, trials,
            [&cell, &totals, traced](const runner::TrialContext &ctx) {
                const Clock::time_point t0 = Clock::now();
                perfbench::TrialSpans spans;
                perfbench::LayerTotals layers;
                runner::TrialResult result = perfbench::timed_trial(
                    cell, ctx, spans, traced ? &layers : nullptr);
                const double trial_s = seconds_between(t0, Clock::now());
                const std::lock_guard<std::mutex> lock(totals.mutex);
                totals.spans += spans;
                totals.layers += layers;
                totals.trial_s += trial_s;
                return result;
            });
    }
    const Clock::time_point built = Clock::now();

    runner::SweepRun run;
    try {
        run = sweep.run();
    } catch (const Error &e) {
        std::fprintf(stderr, "perfbench-driver: %s\n", e.what());
        return runner::kExitUsage;
    }
    const Clock::time_point ran = Clock::now();
    if (spec.finalize)
        spec.finalize(run.sink);
    const int exit_code = runner::finish_sweep(run, cli.sweep);
    const Clock::time_point end = Clock::now();
    rusage usage_end{};
    getrusage(RUSAGE_SELF, &usage_end);

    const double wall_s = seconds_between(start, end);
    const unsigned jobs = run.jobs_used != 0 ? run.jobs_used : 1;
    runner::JsonWriter json(std::cout);
    json.begin_object();
    json.field("trials", static_cast<std::uint64_t>(run.outcomes.size()));
    json.field("failed", run.failed);
    json.field("skipped", run.skipped);
    json.key("cells").begin_array();
    for (const scenario::ScenarioSpec &cell : spec.cells)
        json.value(cell.name);
    json.end_array();
    json.field("wall_s", wall_s);
    json.field("cpu_s", cpu_seconds(usage_end) - cpu_seconds(usage_start));
    json.field("setup_s",
               seconds_between(start, built) + totals.spans.build_s);
    // ru_maxrss is in KiB on Linux.
    json.field("peak_rss_mb", static_cast<double>(usage_end.ru_maxrss) / 1024.0);
    json.field("sim_accesses", totals.spans.accesses);
    json.field("runner.pool_busy_frac", totals.trial_s / (jobs * wall_s));
    json.field("runner.report_s", seconds_between(ran, end));
    json.field("runner.trials", static_cast<std::uint64_t>(run.outcomes.size()));
    if (traced) {
        json.key("layers").begin_object();
        for (const auto &[metric, value] : totals.layers.metrics())
            json.field(metric, value);
        json.end_object();
        json.field("llc_replay_checked", totals.layers.llc_replay_checked);
        json.field("llc_replay_mismatched",
                   totals.layers.llc_replay_mismatched);
        json.field("rerun_mismatched", totals.layers.rerun_mismatched);
    }
    json.end_object();
    std::cout << '\n';
    return exit_code;
}
