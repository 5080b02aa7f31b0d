#include "runner/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>
#include <string_view>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace anvil::runner {
namespace {

std::string
boundary_error(const char *what_happened, const TrialSpec &spec,
               const std::exception &cause)
{
    return Error(what_happened)
        .with("scenario", spec.scenario)
        .with("trial", spec.trial)
        .with_hex("seed", spec.seed)
        .caused_by(cause)
        .what();
}

/**
 * The per-trial error boundary: runs @p fn under the watchdog. Never
 * throws — every failure mode becomes a structured outcome. There is no
 * retry: the trial is a pure function of its seed, so running it again
 * could only reproduce the failure.
 */
TrialOutcome
run_one(const TrialSpec &spec, const TrialFn &fn,
        const SweepOptions &options)
{
    TrialOutcome outcome;
    try {
        TrialContext ctx(spec);
        ctx.watchdog().arm(options.trial_timeout);
        outcome.result = fn(ctx);
    } catch (const TimeoutError &e) {
        outcome.status = TrialStatus::kTimedOut;
        outcome.error = boundary_error("trial timed out", spec, e);
    } catch (const std::exception &e) {
        outcome.status = TrialStatus::kFailed;
        outcome.error = boundary_error("trial failed", spec, e);
    } catch (...) {
        outcome.status = TrialStatus::kFailed;
        outcome.error =
            boundary_error("trial failed", spec, Error("unknown exception"));
    }
    return outcome;
}

}  // namespace

Sweep::Sweep(SweepOptions options) : options_(std::move(options)) {}

void
Sweep::add_scenario(std::string scenario, std::uint64_t trials, TrialFn fn)
{
    scenarios_.push_back(
        Scenario{std::move(scenario), trials, std::move(fn)});
}

std::vector<Sweep::Pending>
Sweep::plan() const
{
    std::vector<Pending> pending;
    std::uint64_t global = 0;
    for (const Scenario &s : scenarios_) {
        for (std::uint64_t t = 0; t < s.trials; ++t, ++global) {
            TrialSpec spec;
            spec.scenario = s.name;
            spec.trial = t;
            spec.seed = trial_seed(options_.master_seed, s.name, t);
            spec.global_index = global;
            pending.push_back(Pending{std::move(spec), &s.fn});
        }
    }
    return pending;
}

SweepRun
Sweep::run()
{
    std::vector<Pending> pending = plan();
    if (options_.replay_trial) {
        // A trial's global index is its position in the plan.
        const std::uint64_t want = *options_.replay_trial;
        if (want >= pending.size()) {
            throw Error("--replay-trial is past the end of the sweep")
                .with("replay_trial", want)
                .with("trials", std::uint64_t{pending.size()});
        }
        pending = {pending[want]};
    }

    // --jobs 0 means one worker per hardware thread (a count the host
    // may report as 0).
    const unsigned jobs =
        options_.replay_trial ? 1u
        : options_.jobs != 0
            ? options_.jobs
            : std::max(1u, std::thread::hardware_concurrency());
    SweepRun run;
    run.jobs_used = jobs;
    run.outcomes.resize(pending.size());

    // One worker loop: trials are claimed from a single atomic index in
    // plan order. The calling thread is a worker too, so --jobs 1 is
    // this same loop with no helper threads. Each trial writes only its
    // own pre-allocated slot.
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
        for (std::size_t i; (i = next++) < pending.size();) {
            run.outcomes[i] =
                run_one(pending[i].spec, *pending[i].fn, options_);
        }
    };
    const auto wall_start = std::chrono::steady_clock::now();
    {
        // The helpers join as this scope ends (on an exception path too),
        // which publishes every slot to this thread.
        std::vector<std::jthread> helpers;
        for (std::size_t t = 1;
             t < std::min<std::size_t>(jobs, pending.size()); ++t)
            helpers.emplace_back(worker);
        worker();
    }
    run.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();

    // Aggregate strictly in plan order: output is independent of the
    // completion order above.
    run.sink.set_meta(options_.name, options_.master_seed);
    for (std::size_t i = 0; i < pending.size(); ++i) {
        const TrialSpec &spec = pending[i].spec;
        const TrialOutcome &outcome = run.outcomes[i];
        run.sink.add(spec, outcome);
        if (outcome.ok()) {
            ++run.completed;
            continue;
        }
        ++run.failed;
        std::cerr << "[runner] " << options_.name << " trial #"
                  << spec.global_index << " (" << spec.scenario << "/"
                  << spec.trial << ") " << to_string(outcome.status)
                  << ": " << outcome.error
                  << " (replay with --jobs 1 --replay-trial "
                  << spec.global_index << ")\n";
    }
    std::cerr << "[runner] " << options_.name << ": " << pending.size()
              << " trial(s) on " << jobs
              << " job(s) in " << run.wall_seconds << " s";
    if (run.failed != 0)
        std::cerr << ", " << run.failed << " failed";
    std::cerr << "\n";
    return run;
}

namespace {

/**
 * Writes all of @p data to @p fd, resuming after short writes and EINTR.
 * @throw Error naming @p path on a write failure.
 */
void
write_all(int fd, std::string_view data, const std::string &path)
{
    while (!data.empty()) {
        const ssize_t n = ::write(fd, data.data(), data.size());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw Error("write failed")
                .with("path", path)
                .caused_by(std::strerror(errno));
        }
        data.remove_prefix(static_cast<std::size_t>(n));
    }
}

/** fsyncs @p fd. @throw Error naming @p path when the sync fails. */
void
fsync_file(int fd, const std::string &path)
{
    if (::fsync(fd) != 0) {
        throw Error("fsync failed")
            .with("path", path)
            .caused_by(std::strerror(errno));
    }
}

/**
 * fsyncs the directory containing @p path, making a just-renamed entry
 * durable. Best-effort: failures are reported on stderr, not thrown (an
 * unsyncable directory should not fail a report whose data is synced).
 */
void
fsync_parent_dir(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) {
        std::cerr << "[runner] cannot open directory " << dir
                  << " for fsync: " << std::strerror(errno) << "\n";
        return;
    }
    if (::fsync(fd) != 0) {
        std::cerr << "[runner] cannot fsync directory " << dir << ": "
                  << std::strerror(errno) << "\n";
    }
    ::close(fd);
}

/**
 * Durably commits @p data to @p path: write a sibling temp file, fsync
 * it, then rename over the destination — a crash leaves either the old
 * committed artifact or the new one, never a torn hybrid. A FIFO or
 * device node is written in place: a rename would replace it.
 */
bool
commit_file(const std::string &path, const std::string &data)
{
    struct stat st;
    const bool in_place =
        ::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode);
    const std::string target = in_place ? path : path + ".tmp";
    const auto discard = [&] {
        if (!in_place)
            std::remove(target.c_str());
    };
    const int fd = ::open(target.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
        std::cerr << "[runner] cannot open " << target
                  << " for writing: " << std::strerror(errno) << "\n";
        return false;
    }
    // An unsynced or unclosed temp file must never be renamed over the
    // report: a crash could then leave a torn report where a committed
    // one stood.
    try {
        write_all(fd, data, target);
        if (!in_place)
            fsync_file(fd, target);
    } catch (const Error &e) {
        std::cerr << "[runner] " << e.what() << "\n";
        ::close(fd);
        discard();
        return false;
    }
    if (::close(fd) != 0) {
        std::cerr << "[runner] cannot close " << target << ": "
                  << std::strerror(errno) << "\n";
        discard();
        return false;
    }
    if (in_place)
        return true;
    if (std::rename(target.c_str(), path.c_str()) != 0) {
        std::cerr << "[runner] cannot rename " << target << " to " << path
                  << ": " << std::strerror(errno) << "\n";
        discard();
        return false;
    }
    // The rename is only durable once the directory entry is: without
    // this, a power cut after the commit could bring back the old
    // report.
    fsync_parent_dir(path);
    return true;
}

}  // namespace

bool
write_json_output(const ResultSink &sink, const SweepOptions &options)
{
    if (options.json_out.empty())
        return true;
    if (options.json_out == "-") {
        sink.write_json(std::cout);
        return true;
    }
    std::ostringstream out;
    sink.write_json(out);
    return commit_file(options.json_out, out.str());
}

int
finish_sweep(const SweepRun &run, const SweepOptions &options)
{
    if (!write_json_output(run.sink, options))
        return kExitJsonError;
    return run.failed != 0 ? kExitTrialFailure : kExitOk;
}

}  // namespace anvil::runner
