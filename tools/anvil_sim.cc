/**
 * @file
 * anvil-sim: the single driver for every paper table/figure sweep.
 *
 *   anvil-sim --list                         enumerate scenario sweeps
 *   anvil-sim [run] SWEEP [args] [flags]     run one sweep in-process
 *
 * The sweep definitions live in the scenario catalog
 * (src/scenario/catalog.cc); this binary only resolves the name, runs
 * the sweep through the shared parallel runner, and emits the standard
 * `anvil-sweep-v1` JSON report. Once the trials have run it prints the
 * sweep's paper table, then commits the report; the table goes to
 * stdout, or to stderr when the report itself does (--json-out -).
 *
 * A file report is committed atomically (temp file, fsync, rename), so
 * a run that is interrupted or killed leaves the previous report or
 * none. There is no checkpoint to resume from: rerun the command.
 *
 * Exit codes (runner::ExitCode): 0 = complete and all trials ok;
 * 1 = report not writable; 2 = usage error (including a malformed sweep
 * argument and an out-of-range --replay-trial); 4 = complete but at
 * least one trial failed (see the JSON "failures" records).
 */
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/text.hh"
#include "runner/options.hh"
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
        "  positional: [run] scenario sweep name, then the sweep's own\n"
        "              arguments\n"
        "  --list             print the registered scenario sweeps\n");
    // `anvil-sim run SWEEP` reads naturally in CI scripts and docs; the
    // verb is optional and never a sweep name itself.
    if (!cli.positional.empty() && cli.positional.front() == "run")
        cli.positional.erase(cli.positional.begin());
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

    try {
        const scenario::SweepSpec spec = factory->make(cli);
        const runner::SweepRun run = scenario::run_sweep(spec, cli);
        // Print the table before the report is committed, to stderr
        // when the report itself goes to stdout so stdout stays one JSON
        // document.
        if (spec.render) {
            spec.render(run.sink, cli.sweep.json_out == "-" ? std::cerr
                                                            : std::cout);
        }
        return runner::finish_sweep(run, cli.sweep);
    } catch (const Error &e) {
        // Configuration-level faults (a malformed sweep argument, spec
        // validation, a --replay-trial past the end of the plan) —
        // not per-trial failures, which the runner's error boundary
        // already turned into outcomes.
        std::fprintf(stderr, "anvil-sim: %s\n", e.what());
        return runner::kExitUsage;
    }
}
