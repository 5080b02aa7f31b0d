/**
 * @file
 * anvil-sim: the single driver for every paper table/figure sweep.
 *
 *   anvil-sim --list                         enumerate scenario sweeps
 *   anvil-sim [run] SWEEP [args] [flags]     run one sweep in-process
 *   anvil-sim supervise SWEEP [args] [flags] sharded multi-process run
 *   anvil-sim shard SWEEP [args] [flags]     one shard child (internal)
 *   anvil-sim merge SWEEP [args] [flags]     fold shard journals into
 *                                            the report (--check: only
 *                                            validate, write nothing)
 *
 * The sweep definitions live in the scenario catalog
 * (src/scenario/catalog.cc); this binary only resolves the name, runs
 * the sweep through the shared parallel runner, and emits the standard
 * `anvil-sweep-v1` JSON report. Whenever it commits a report (`run`,
 * `supervise`, `merge` without --check) it first prints the sweep's
 * paper table: to stdout, or to stderr when the report itself goes to
 * stdout (--json-out -). `supervise` splits the sweep's trial
 * plan over --shards child processes (each `anvil-sim shard`, its own
 * crash-isolated checkpoint journal), restarts or requeues dead shards,
 * and merges the journals into a report byte-identical to a
 * single-process run (EXPERIMENTS.md "Sharded runs").
 *
 * A plain `run` is shard 0 of 1: its `<json-out>.journal` has the same
 * format as a shard journal, so `supervise --shards 1` or
 * `merge --shards 1` can also finish or fold it.
 *
 * Exit codes (runner::ExitCode): 0 = complete and all trials ok;
 * 1 = report not writable; 2 = usage error; 3 = interrupted
 * (SIGINT/SIGTERM drained the run and kept its journal — rerun `run`
 * with --resume added, or rerun `shard`/`supervise` as is, to continue;
 * a `run` without --resume discards the journal and starts over);
 * 4 = complete but at least one trial failed (see the JSON "failures"
 * records); 5 = supervise: trials outstanding after every shard slot
 * exhausted its respawn budget (journals kept — rerun to continue);
 * 6 = merge: shard journals incomplete, conflicting, or invalid.
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "common/text.hh"
#include "runner/options.hh"
#include "runner/shard.hh"
#include "runner/supervisor.hh"
#include "runner/sweep.hh"
#include "scenario/builder.hh"
#include "scenario/registry.hh"

using namespace anvil;

namespace {

void
print_list()
{
    std::printf("registered scenario sweeps:\n");
    for (const scenario::SweepFactory &factory :
         scenario::paper_registry().all()) {
        std::string invocation = factory.name;
        if (!factory.usage.empty())
            invocation += " " + factory.usage;
        std::printf("  %-36s %s\n", invocation.c_str(),
                    factory.description.c_str());
    }
}

/** The registered sweep closest to @p name, or nullptr if nothing near. */
const scenario::SweepFactory *
nearest_sweep(const std::string &name)
{
    std::vector<std::string> names;
    for (const scenario::SweepFactory &factory :
         scenario::paper_registry().all())
        names.push_back(factory.name);
    const auto near = nearest_name(name, names);
    return near ? scenario::paper_registry().find(*near) : nullptr;
}

/** True when sharded verbs may use --json-out as a journal anchor. */
bool
require_file_json_out(const runner::CliOptions &cli, const char *verb)
{
    if (!cli.sweep.json_out.empty() && cli.sweep.json_out != "-")
        return true;
    std::fprintf(stderr,
                 "anvil-sim: `%s` needs --json-out FILE (shard journals "
                 "live next to the JSON report)\n",
                 verb);
    return false;
}

/**
 * Commits @p run through finish_sweep(), first printing the sweep's
 * paper table when that writes a report (a whole-plan run). The table
 * goes to stderr when the report itself goes to stdout, so stdout stays
 * one JSON document.
 */
int
commit(const scenario::SweepSpec &spec, const runner::SweepRun &run,
       const runner::SweepOptions &options)
{
    if (spec.render && run.commits_report())
        spec.render(run.sink, options.json_out == "-" ? std::cerr : std::cout);
    return runner::finish_sweep(run, options);
}

/** Prints merge diagnostics; returns the verb's exit code. */
int
report_merge_problems(const runner::MergeResult &merge)
{
    for (const std::string &line : merge.coverage)
        std::fprintf(stderr, "anvil-sim: merge: %s\n", line.c_str());
    for (const std::string &line : merge.problems)
        std::fprintf(stderr, "anvil-sim: merge: error: %s\n", line.c_str());
    return runner::kExitMergeError;
}

/**
 * Folds the journals of the campaign cli.sweep describes (its
 * shard.count shards) into the report and commits it, or with @p check
 * only validates them.
 */
int
merge_campaign(const scenario::SweepSpec &spec,
               const std::vector<runner::TrialSpec> &plan,
               const runner::CliOptions &cli, bool check)
{
    runner::MergeResult merge = runner::merge_shards(plan, cli.sweep, check);
    if (!merge.complete())
        return report_merge_problems(merge);
    if (check) {
        for (const std::string &line : merge.coverage)
            std::fprintf(stderr, "anvil-sim: merge: %s\n", line.c_str());
        std::fprintf(stderr,
                     "anvil-sim: merge: ok — %zu trial(s) across %u "
                     "shard journal(s), %llu failure record(s)\n",
                     merge.run.outcomes.size(), cli.sweep.shard.count,
                     static_cast<unsigned long long>(merge.run.failed));
        return runner::kExitOk;
    }
    if (spec.finalize)
        spec.finalize(merge.run.sink);
    return commit(spec, merge.run, cli.sweep);
}

/**
 * `anvil-sim shard`: run this process's slice of the campaign. A shard
 * always resumes from its own journal — that is how a respawned child
 * picks up where its predecessor died — and the journal is its only
 * output: the supervisor's merge commits the report.
 */
int
run_shard(const scenario::SweepSpec &spec, runner::CliOptions &cli)
{
    if (!require_file_json_out(cli, "shard"))
        return runner::kExitUsage;
    cli.sweep.resume = true;
    const runner::SweepRun run = scenario::make_sweep(spec, cli).run();
    cli.sweep.json_out.clear();  // exit-code mapping only; no report
    return runner::finish_sweep(run, cli.sweep);
}

/**
 * `anvil-sim supervise`: partition the plan over child `shard`
 * processes, babysit them to durable completion, then merge.
 */
int
run_supervise(const scenario::SweepFactory &factory,
              const scenario::SweepSpec &spec, runner::CliOptions &cli)
{
    if (!require_file_json_out(cli, "supervise"))
        return runner::kExitUsage;
    if (cli.supervisor.shards == 0) {
        std::fprintf(stderr, "anvil-sim: --shards must be at least 1\n");
        return runner::kExitUsage;
    }
    cli.sweep.shard.count = cli.supervisor.shards;

    runner::Sweep sweep = scenario::make_sweep(spec, cli);
    const std::vector<runner::TrialSpec> plan = sweep.plan_specs();

    // Children re-run this binary's `shard` verb over the same sweep
    // with the same determinism-relevant flags; the supervisor appends
    // the per-shard assignment itself.
    std::vector<std::string> args;
    args.push_back("shard");
    args.push_back(factory.name);
    args.insert(args.end(), cli.positional.begin(), cli.positional.end());
    args.push_back("--json-out");
    args.push_back(cli.sweep.json_out);
    args.push_back("--master-seed");
    args.push_back(std::to_string(cli.sweep.master_seed));
    if (cli.trials != 0) {
        args.push_back("--trials");
        args.push_back(std::to_string(cli.trials));
    }
    if (cli.sweep.retries != 0) {
        args.push_back("--retries");
        args.push_back(std::to_string(cli.sweep.retries));
    }
    if (cli.sweep.trial_timeout != 0) {
        args.push_back("--trial-timeout");
        args.push_back(std::to_string(cli.sweep.trial_timeout));
    }
    unsigned jobs = cli.supervisor.shard_jobs;
    if (jobs == 0) {
        const unsigned hw =
            std::max(1u, std::thread::hardware_concurrency());
        jobs = std::max(1u, hw / cli.supervisor.shards);
    }
    args.push_back("--jobs");
    args.push_back(std::to_string(jobs));
    for (const runner::FaultSpec &fault : cli.sweep.faults) {
        args.push_back("--inject-fault");
        args.push_back(runner::to_string(fault));
    }

    const runner::SupervisorReport report =
        runner::supervise(plan, cli.sweep, cli.supervisor, args);
    if (report.interrupted)
        return runner::kExitPartial;
    if (!report.complete)
        return runner::kExitShardDead;
    return merge_campaign(spec, plan, cli, /*check=*/false);
}

/**
 * `anvil-sim merge`: fold existing shard journals into the report —
 * the manual recovery path, and (--check) the campaign validator.
 */
int
run_merge(const scenario::SweepSpec &spec, runner::CliOptions &cli)
{
    if (!require_file_json_out(cli, "merge"))
        return runner::kExitUsage;
    cli.sweep.shard.count = cli.supervisor.shards;
    runner::Sweep sweep = scenario::make_sweep(spec, cli);
    return merge_campaign(spec, sweep.plan_specs(), cli, cli.check);
}

}  // namespace

int
main(int argc, char **argv)
{
    // --list is our flag, not the runner's; handle it before parse()
    // (which exits 2 on flags it does not know).
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--list") == 0) {
            print_list();
            return runner::kExitOk;
        }
    }

    runner::CliOptions cli = runner::CliOptions::parse(
        argc, argv,
        "  positional: [run|supervise|shard|merge] scenario sweep name,\n"
        "              then the sweep's own arguments\n"
        "  --list             print the registered scenario sweeps\n");
    // `anvil-sim run SWEEP` reads naturally in CI scripts and docs; the
    // verb is optional and never a sweep name itself.
    std::string verb = "run";
    if (!cli.positional.empty() &&
        (cli.positional.front() == "run" ||
         cli.positional.front() == "shard" ||
         cli.positional.front() == "supervise" ||
         cli.positional.front() == "merge")) {
        verb = cli.positional.front();
        cli.positional.erase(cli.positional.begin());
    }
    if (cli.positional.empty()) {
        std::fprintf(stderr,
                     "anvil-sim: expected a scenario sweep name "
                     "(try --list)\n");
        return runner::kExitUsage;
    }

    const std::string name = cli.positional.front();
    const scenario::SweepFactory *factory =
        scenario::paper_registry().find(name);
    if (factory == nullptr) {
        std::fprintf(stderr, "anvil-sim: unknown scenario sweep '%s'\n",
                     name.c_str());
        if (const scenario::SweepFactory *near = nearest_sweep(name)) {
            std::fprintf(stderr, "  did you mean '%s'?\n",
                         near->name.c_str());
        }
        std::fprintf(stderr, "\n");
        print_list();
        return runner::kExitUsage;
    }

    // The sweep sees its own positionals: argument 0 is the first after
    // the sweep name.
    cli.positional.erase(cli.positional.begin());

    // SIGINT/SIGTERM drain instead of kill: in-flight trials (or shard
    // children) finish what they started, journals stay on disk, and we
    // exit kExitPartial so the run is resumable.
    runner::install_signal_handlers();

    try {
        const scenario::SweepSpec spec = factory->make(cli);
        if (verb == "shard")
            return run_shard(spec, cli);
        if (verb == "supervise")
            return run_supervise(*factory, spec, cli);
        if (verb == "merge")
            return run_merge(spec, cli);
        runner::SweepRun run = scenario::run_sweep(spec, cli);
        return commit(spec, run, cli.sweep);
    } catch (const Error &e) {
        // Configuration-level faults (spec validation, a --resume journal
        // from a different sweep) — not per-trial failures, which the
        // runner's error boundary already turned into outcomes.
        std::fprintf(stderr, "anvil-sim: %s\n", e.what());
        return runner::kExitUsage;
    }
}
