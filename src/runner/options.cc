#include "runner/options.hh"

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string_view>

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
        << "  --trial-timeout N  per-trial simulated-event budget "
           "(0 = unlimited)\n"
        << "  --resume           replay the run's journal and run only "
           "missing trials\n"
        << "  --inject-fault S   inject a deterministic fault, "
           "S = kind@scenario:trial\n"
        << "                     (kind: throw | hang | stall; "
           "repeatable)\n"
        << "  --help             this message\n";
    if (!extra.empty())
        std::cerr << extra << "\n";
}

/**
 * Parses a uint64 flag value of at most @p max; exits 2 with usage on
 * garbage or a larger value.
 */
std::uint64_t
parse_u64(const char *prog, const std::string &extra,
          std::string_view flag, const char *text,
          std::uint64_t max = UINT64_MAX)
{
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(text, &end, 0);
    if (end == text || *end != '\0' || v > max) {
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
    const std::string &text = positional[index];
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    // A partial parse ("1e3x"), nan, inf, zero or a negative value would
    // run a silently wrong or never-ending sweep.
    if (end == text.c_str() || *end != '\0' || !std::isfinite(v) ||
        v <= 0.0) {
        throw Error("sweep argument must be a finite number > 0")
            .with("argument", std::uint64_t{index})
            .with("text", text);
    }
    return v;
}

CliOptions
CliOptions::parse(int argc, char **argv, const std::string &extra_usage)
{
    CliOptions opts;
    const char *prog = argc > 0 ? argv[0] : "bench";

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
            opts.sweep.jobs = static_cast<unsigned>(parse_u64(
                prog, extra_usage, arg, take_value(), UINT_MAX));
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
    return opts;
}

}  // namespace anvil::runner
