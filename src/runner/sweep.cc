#include "runner/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "runner/journal.hh"

namespace anvil::runner {
namespace {

std::atomic<bool> g_shutdown{false};

extern "C" void
shutdown_signal_handler(int)
{
    // Async-signal-safe: a lock-free atomic store and nothing else.
    g_shutdown.store(true, std::memory_order_relaxed);
}

/** True when trial outcomes should be journaled for these options. */
bool
journaling_enabled(const SweepOptions &options)
{
    return !options.replay_trial && !options.json_out.empty() &&
           options.json_out != "-";
}

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
 * The per-trial error boundary: runs @p fn under fault injection and the
 * watchdog. Never throws — every failure mode becomes a structured
 * outcome. There is no retry: the trial is a pure function of its seed,
 * so running it again could only reproduce the failure.
 */
TrialOutcome
run_one(const TrialSpec &spec, const TrialFn &fn,
        const SweepOptions &options, const FaultPlan &faults)
{
    TrialOutcome outcome;
    try {
        TrialContext ctx(spec);
        ctx.watchdog().arm(options.trial_timeout);
        if (const FaultSpec *fault = faults.match(spec))
            FaultPlan::inject_before(*fault, ctx);
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

void
request_shutdown()
{
    g_shutdown.store(true, std::memory_order_relaxed);
}

bool
shutdown_requested()
{
    return g_shutdown.load(std::memory_order_relaxed);
}

void
clear_shutdown()
{
    g_shutdown.store(false, std::memory_order_relaxed);
}

void
install_signal_handlers()
{
    std::signal(SIGINT, shutdown_signal_handler);
    std::signal(SIGTERM, shutdown_signal_handler);
}

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

std::vector<TrialSpec>
Sweep::plan_specs() const
{
    std::vector<TrialSpec> specs;
    for (const Pending &p : plan())
        specs.push_back(p.spec);
    return specs;
}

SweepRun
Sweep::run()
{
    std::vector<Pending> pending = plan();
    const std::vector<TrialSpec> specs = plan_specs();
    // Checked against the full plan, so a replay still refuses a fault
    // that no run of this sweep could fire.
    const FaultPlan faults(options_.faults);
    faults.check_planned(specs);

    if (options_.replay_trial) {
        const std::uint64_t want = *options_.replay_trial;
        const std::size_t total = pending.size();
        std::vector<Pending> one;
        for (Pending &p : pending) {
            if (p.spec.global_index == want)
                one.push_back(std::move(p));
        }
        pending = std::move(one);
        if (pending.empty()) {
            std::cerr << "[runner] " << options_.name << ": --replay-trial "
                      << want << " is out of range (sweep has " << total
                      << " trial(s), indices 0.." << (total ? total - 1 : 0)
                      << "); nothing to run\n";
        }
    }

    SweepRun run;
    run.outcomes.resize(pending.size());
    std::vector<bool> replayed(pending.size(), false);

    // Checkpoint/resume: replay the journal (the reader validates each
    // record against the plan — the sweep definition must not have
    // changed under us) and pre-fill those slots so only the remainder
    // executes.
    const bool journaling = journaling_enabled(options_);
    const JournalHeader header{options_.name, options_.master_seed,
                               plan_hash(specs)};
    const std::string jpath = journal_path(options_.json_out);
    if (options_.resume && journaling) {
        for (JournalRecord &rec : read_journal(jpath, header, specs)) {
            const std::uint64_t i = rec.spec.global_index;
            run.outcomes[i] = std::move(rec.outcome);
            replayed[i] = true;
            ++run.resumed;
        }
    }

    JournalWriter journal;
    if (journaling) {
        try {
            journal.open(jpath, header, /*append=*/options_.resume);
        } catch (const Error &e) {
            // A journal we cannot resume from is a configuration fault;
            // a journal we merely cannot create is not worth killing the
            // run over — run unjournaled and let the final report write
            // surface the unwritable path as its own exit code.
            if (options_.resume)
                throw;
            std::cerr << "[runner] " << options_.name
                      << ": running without a checkpoint journal: "
                      << e.what() << "\n";
        }
    }

    // --jobs 0 means one worker per hardware thread (a count the host
    // may report as 0).
    const unsigned jobs =
        options_.replay_trial ? 1u
        : options_.jobs != 0
            ? options_.jobs
            : std::max(1u, std::thread::hardware_concurrency());
    run.jobs_used = jobs;

    const auto execute = [&](std::size_t i) {
        // The drain point: a shutdown request skips every trial that has
        // not started yet; in-flight trials run to completion.
        if (shutdown_requested()) {
            run.outcomes[i].status = TrialStatus::kSkipped;
            return;
        }
        run.outcomes[i] =
            run_one(pending[i].spec, *pending[i].fn, options_, faults);
        if (journaling) {
            // append() no-ops (under its lock) once the journal is
            // closed — is_open() here would race with the close below.
            try {
                journal.append(pending[i].spec, run.outcomes[i]);
            } catch (const Error &e) {
                // Journal I/O died mid-run (disk full, volume gone).
                // Checkpointing is best-effort: keep the sweep alive,
                // stop journaling — a crash from here is no longer
                // resumable, which beats losing the run now.
                journal.close();
                std::cerr << "[runner] " << options_.name
                          << ": checkpoint journaling disabled: "
                          << e.what() << "\n";
            }
        }
    };

    // One worker loop: the trials still to run are claimed from a single
    // atomic index in plan order. The calling thread is a worker too, so
    // --jobs 1 is this same loop with no helper threads. Each trial
    // writes only its own pre-allocated slot.
    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < pending.size(); ++i) {
        if (!replayed[i])
            todo.push_back(i);
    }
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
        for (std::size_t k; (k = next++) < todo.size();)
            execute(todo[k]);
    };
    const auto wall_start = std::chrono::steady_clock::now();
    {
        // The helpers join as this scope ends (on an exception path too),
        // which publishes every slot to this thread.
        std::vector<std::jthread> helpers;
        for (std::size_t t = 1;
             t < std::min<std::size_t>(jobs, todo.size()); ++t)
            helpers.emplace_back(worker);
        worker();
    }
    run.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
    journal.close();

    // Aggregate strictly in plan order: output is independent of the
    // completion order above, and of which trials were journal replays.
    run.sink.set_meta(options_.name, options_.master_seed);
    for (std::size_t i = 0; i < pending.size(); ++i) {
        const TrialOutcome &outcome = run.outcomes[i];
        switch (outcome.status) {
          case TrialStatus::kSkipped:
              ++run.skipped;
              continue;
          case TrialStatus::kOk:
              ++run.completed;
              break;
          case TrialStatus::kFailed:
          case TrialStatus::kTimedOut:
              ++run.failed;
              break;
        }
        run.sink.add(pending[i].spec, outcome);
    }

    for (std::size_t i = 0; i < pending.size(); ++i) {
        const TrialOutcome &outcome = run.outcomes[i];
        if (!outcome.failed())
            continue;
        std::cerr << "[runner] " << options_.name << " trial #"
                  << pending[i].spec.global_index << " ("
                  << pending[i].spec.scenario << "/"
                  << pending[i].spec.trial << ") "
                  << to_string(outcome.status) << ": " << outcome.error
                  << " (replay with --jobs 1 --replay-trial "
                  << pending[i].spec.global_index << ")\n";
    }
    std::cerr << "[runner] " << options_.name << ": " << pending.size()
              << " trial(s) on " << jobs
              << " job(s) in " << run.wall_seconds << " s";
    if (run.resumed != 0)
        std::cerr << ", " << run.resumed << " resumed from journal";
    if (run.failed != 0)
        std::cerr << ", " << run.failed << " failed";
    if (run.skipped != 0)
        std::cerr << ", " << run.skipped << " skipped (shutdown drain)";
    std::cerr << "\n";
    return run;
}

namespace {

/**
 * Durably commits @p data to @p path: write a sibling temp file, fsync
 * it, then rename over the destination — a crash leaves either the old
 * committed artifact or the new one, never a torn hybrid.
 */
bool
atomic_write_file(const std::string &path, const std::string &data)
{
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
        std::cerr << "[runner] cannot open " << tmp
                  << " for writing: " << std::strerror(errno) << "\n";
        return false;
    }
    // An unsynced or unclosed temp file must never be renamed over the
    // report: the caller would then delete the journal, and a crash could
    // leave neither the data nor anything to resume from.
    try {
        write_all(fd, data, tmp);
        fsync_file(fd, tmp);
    } catch (const Error &e) {
        std::cerr << "[runner] " << e.what() << "\n";
        ::close(fd);
        std::remove(tmp.c_str());
        return false;
    }
    if (::close(fd) != 0) {
        std::cerr << "[runner] cannot close " << tmp << ": "
                  << std::strerror(errno) << "\n";
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::cerr << "[runner] cannot rename " << tmp << " to " << path
                  << ": " << std::strerror(errno) << "\n";
        std::remove(tmp.c_str());
        return false;
    }
    // The rename is only durable once the directory entry is: without
    // this, a power cut after "commit" could leave neither the report
    // nor (the journal having been removed next) anything to resume.
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
    return atomic_write_file(options.json_out, out.str());
}

int
finish_sweep(const SweepRun &run, const SweepOptions &options)
{
    const bool journaling = journaling_enabled(options);
    if (!run.complete()) {
        std::cerr << "[runner] " << options.name << ": interrupted — "
                  << run.skipped << " trial(s) not run";
        if (journaling) {
            std::cerr << "; resume with --resume (journal: "
                      << journal_path(options.json_out) << ")";
        }
        std::cerr << "\n";
        // No JSON: a partial report must never overwrite a committed one.
        return kExitPartial;
    }
    if (!write_json_output(run.sink, options))
        return kExitJsonError;
    // The report is durably committed; the journal is redundant.
    if (journaling)
        std::remove(journal_path(options.json_out).c_str());
    return run.failed != 0 ? kExitTrialFailure : kExitOk;
}

}  // namespace anvil::runner

