#include "runner/options.hh"

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string_view>

#include "runner/shard.hh"

namespace anvil::runner {
namespace {

void
print_usage(const char *prog, const std::string &extra)
{
    std::cerr
        << "usage: " << prog << " [options] [positional...]\n"
        << "  --jobs N           worker threads (default: hardware "
           "threads)\n"
        << "  --master-seed N    root seed for all trials (default "
           "0x5eed)\n"
        << "  --trials N         override per-scenario trial count\n"
        << "  --json-out PATH    write aggregated JSON report (\"-\" = "
           "stdout)\n"
        << "  --replay-trial N   run only global trial N, serially\n"
        << "  --retries N        re-run failed trials up to N extra times "
           "(same seed)\n"
        << "  --trial-timeout N  per-trial simulated-event budget "
           "(0 = unlimited)\n"
        << "  --resume           replay the run's journal and run only "
           "missing trials\n"
        << "  --inject-fault S   inject a deterministic fault, "
           "S = kind@scenario:trial\n"
        << "                     (kind: throw | flaky | hang | corrupt | "
           "abort |\n"
        << "                      sigkill-self | stall; repeatable)\n"
        << "sharded campaigns (see EXPERIMENTS.md):\n"
        << "  --shard-index K    run as shard K of a sharded campaign\n"
        << "  --shard-count N    total shards in the campaign\n"
        << "  --shard-trials R   trial ranges this shard owns, "
           "R = A-B[,C-D...]\n"
        << "                     (default: shard K's slice of an even "
           "partition)\n"
        << "  --lease-interval-ms N  shard heartbeat period (default "
           "500)\n"
        << "  --shards N         supervise: shard process count "
           "(default 4)\n"
        << "  --respawn-budget N supervise: deaths tolerated per shard "
           "slot (default 3)\n"
        << "  --lease-timeout-ms N   supervise: silent-journal limit "
           "before a\n"
        << "                     shard is declared hung (default 10000)\n"
        << "  --backoff-ms N     supervise: initial respawn delay, "
           "doubles per death\n"
        << "  --shard-jobs N     supervise: worker threads per shard "
           "child\n"
        << "  --check            merge: validate shard journals, write "
           "nothing\n"
        << "  --help             this message\n";
    if (!extra.empty())
        std::cerr << extra << "\n";
}

/** Parses a uint64 flag value; exits 2 with usage on garbage. */
std::uint64_t
parse_u64(const char *prog, const std::string &extra,
          std::string_view flag, const char *text)
{
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(text, &end, 0);
    if (end == text || *end != '\0') {
        std::cerr << prog << ": bad value for " << flag << ": '" << text
                  << "'\n";
        print_usage(prog, extra);
        std::exit(2);
    }
    return v;
}

}  // namespace

double
CliOptions::positional_double(std::size_t index, double fallback) const
{
    if (index >= positional.size())
        return fallback;
    return std::atof(positional[index].c_str());
}

CliOptions
CliOptions::parse(int argc, char **argv, const std::string &extra_usage)
{
    CliOptions opts;
    const char *prog = argc > 0 ? argv[0] : "bench";
    std::optional<std::uint32_t> shard_index;
    std::optional<std::uint32_t> shard_count;
    std::optional<std::string> shard_trials;
    std::optional<std::uint64_t> lease_interval_ms;

    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        std::string inline_value;
        // Accept both "--flag value" and "--flag=value".
        if (const auto eq = arg.find('=');
            arg.rfind("--", 0) == 0 && eq != std::string_view::npos) {
            inline_value = std::string(arg.substr(eq + 1));
            arg = arg.substr(0, eq);
        }
        const auto take_value = [&]() -> const char * {
            if (!inline_value.empty())
                return inline_value.c_str();
            if (i + 1 >= argc) {
                std::cerr << prog << ": " << arg << " needs a value\n";
                print_usage(prog, extra_usage);
                std::exit(2);
            }
            return argv[++i];
        };

        if (arg == "--help" || arg == "-h") {
            print_usage(prog, extra_usage);
            std::exit(0);
        } else if (arg == "--jobs" || arg == "-j") {
            opts.sweep.jobs = static_cast<unsigned>(
                parse_u64(prog, extra_usage, arg, take_value()));
        } else if (arg == "--master-seed") {
            opts.sweep.master_seed =
                parse_u64(prog, extra_usage, arg, take_value());
        } else if (arg == "--trials") {
            opts.trials = parse_u64(prog, extra_usage, arg, take_value());
        } else if (arg == "--json-out") {
            opts.sweep.json_out = take_value();
        } else if (arg == "--replay-trial") {
            opts.sweep.replay_trial =
                parse_u64(prog, extra_usage, arg, take_value());
        } else if (arg == "--retries") {
            opts.sweep.retries = static_cast<unsigned>(
                parse_u64(prog, extra_usage, arg, take_value()));
        } else if (arg == "--trial-timeout") {
            opts.sweep.trial_timeout =
                parse_u64(prog, extra_usage, arg, take_value());
        } else if (arg == "--resume") {
            opts.sweep.resume = true;
        } else if (arg == "--inject-fault") {
            try {
                opts.sweep.faults.push_back(parse_fault(take_value()));
            } catch (const Error &e) {
                std::cerr << prog << ": bad value for --inject-fault: "
                          << e.what() << "\n";
                print_usage(prog, extra_usage);
                std::exit(2);
            }
        } else if (arg == "--shard-index") {
            shard_index = static_cast<std::uint32_t>(
                parse_u64(prog, extra_usage, arg, take_value()));
        } else if (arg == "--shard-count") {
            shard_count = static_cast<std::uint32_t>(
                parse_u64(prog, extra_usage, arg, take_value()));
        } else if (arg == "--shard-trials") {
            shard_trials = take_value();
        } else if (arg == "--lease-interval-ms") {
            lease_interval_ms =
                parse_u64(prog, extra_usage, arg, take_value());
        } else if (arg == "--shards") {
            opts.supervisor.shards = static_cast<std::uint32_t>(
                parse_u64(prog, extra_usage, arg, take_value()));
        } else if (arg == "--respawn-budget") {
            opts.supervisor.respawn_budget = static_cast<unsigned>(
                parse_u64(prog, extra_usage, arg, take_value()));
        } else if (arg == "--lease-timeout-ms") {
            opts.supervisor.lease_timeout_ms =
                parse_u64(prog, extra_usage, arg, take_value());
        } else if (arg == "--backoff-ms") {
            opts.supervisor.backoff_ms =
                parse_u64(prog, extra_usage, arg, take_value());
        } else if (arg == "--shard-jobs") {
            opts.supervisor.shard_jobs = static_cast<unsigned>(
                parse_u64(prog, extra_usage, arg, take_value()));
        } else if (arg == "--check") {
            opts.check = true;
        } else if (arg.rfind("--", 0) == 0) {
            std::cerr << prog << ": unknown flag " << arg << "\n";
            print_usage(prog, extra_usage);
            std::exit(2);
        } else {
            opts.positional.emplace_back(argv[i]);
        }
    }
    if (opts.sweep.resume && opts.sweep.replay_trial) {
        std::cerr << prog << ": --resume and --replay-trial are mutually "
                     "exclusive (a replay runs one trial and writes no "
                     "journal)\n";
        print_usage(prog, extra_usage);
        std::exit(2);
    }
    if (opts.sweep.resume &&
        (opts.sweep.json_out.empty() || opts.sweep.json_out == "-")) {
        std::cerr << prog << ": --resume needs --json-out FILE (the "
                     "journal lives next to the JSON report)\n";
        print_usage(prog, extra_usage);
        std::exit(2);
    }
    if (shard_index || shard_count || shard_trials || lease_interval_ms) {
        const auto usage_error = [&](const std::string &msg) {
            std::cerr << prog << ": " << msg << "\n";
            print_usage(prog, extra_usage);
            std::exit(2);
        };
        if (!shard_index || !shard_count) {
            usage_error("sharded runs need both --shard-index and "
                        "--shard-count");
        }
        if (*shard_count == 0 || *shard_index >= *shard_count) {
            usage_error("--shard-index must be < --shard-count (got " +
                        std::to_string(*shard_index) + " of " +
                        std::to_string(*shard_count) + ")");
        }
        if (opts.sweep.json_out.empty() || opts.sweep.json_out == "-") {
            usage_error("sharded runs need --json-out FILE (the shard "
                        "journal lives next to the JSON report)");
        }
        if (opts.sweep.replay_trial) {
            usage_error("--replay-trial cannot be combined with a shard "
                        "assignment");
        }
        ShardAssignment &shard = opts.sweep.shard;
        shard.index = *shard_index;
        shard.count = *shard_count;
        shard.lease_interval_ms = lease_interval_ms.value_or(500);
        // An absent --shard-trials means "shard K's slice of the even
        // partition", which the run resolves once the plan is known.
        if (shard_trials) {
            try {
                shard.ranges = parse_trial_ranges(*shard_trials);
            } catch (const Error &e) {
                usage_error(std::string("bad value for --shard-trials: ") +
                            e.what());
            }
        }
    }
    return opts;
}

}  // namespace anvil::runner
