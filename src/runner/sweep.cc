#include "runner/sweep.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <fcntl.h>
#include <unistd.h>

#include "runner/journal.hh"
#include "runner/shard.hh"
#include "runner/thread_pool.hh"

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

/**
 * Appends a lease heartbeat to @p journal every @p interval_ms until
 * stopped, so a supervisor watching the journal grow can distinguish a
 * shard mid-long-trial from one that is wedged (a stopped or deadlocked
 * process stops beating).
 */
class LeaseHeartbeat
{
  public:
    LeaseHeartbeat(JournalWriter &journal, std::uint64_t interval_ms)
    {
        if (interval_ms == 0 || !journal.is_open())
            return;
        thread_ = std::thread([this, &journal, interval_ms] {
            std::uint64_t seq = 0;
            std::unique_lock<std::mutex> lock(mutex_);
            while (!cv_.wait_for(lock,
                                 std::chrono::milliseconds(interval_ms),
                                 [this] { return stop_; })) {
                try {
                    journal.append_lease(seq++);
                } catch (const Error &) {
                    // Heartbeats are liveness evidence, not data; a
                    // failing append means the journal itself is dying
                    // and the supervisor will see the silence.
                    return;
                }
            }
        });
    }

    ~LeaseHeartbeat()
    {
        if (!thread_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

  private:
    std::thread thread_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

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
 * The per-trial error boundary: runs @p fn with fault injection, the
 * watchdog, and deterministic retries. Never throws — every failure mode
 * becomes a structured outcome.
 */
TrialOutcome
run_one(const TrialSpec &spec, const TrialFn &fn,
        const SweepOptions &options, const FaultPlan &faults)
{
    const FaultSpec *fault = faults.match(spec);
    const unsigned max_attempts = 1 + options.retries;
    TrialOutcome outcome;
    for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
        outcome = TrialOutcome{};
        outcome.attempts = attempt;
        try {
            // The context (and therefore every seed stream) is re-derived
            // identically on every attempt: a retry that succeeds yields
            // the result the trial would always have produced.
            TrialContext ctx(spec);
            ctx.watchdog().arm(options.trial_timeout);
            if (fault != nullptr)
                faults.inject_before(*fault, ctx, attempt);
            outcome.result = fn(ctx);
            if (fault != nullptr)
                FaultPlan::inject_after(*fault, spec, outcome.result);
            outcome.status = TrialStatus::kOk;
            return outcome;
        } catch (const TimeoutError &e) {
            // Deterministic by construction: a retry would burn the whole
            // budget again and time out at the identical event, so don't.
            outcome.status = TrialStatus::kTimedOut;
            outcome.error = boundary_error("trial timed out", spec, e);
            return outcome;
        } catch (const std::exception &e) {
            outcome.status = TrialStatus::kFailed;
            outcome.error = boundary_error("trial failed", spec, e);
        } catch (...) {
            outcome.status = TrialStatus::kFailed;
            outcome.error = boundary_error(
                "trial failed", spec, Error("unknown exception"));
        }
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

std::vector<TrialRange>
ShardAssignment::owned(std::uint64_t total) const
{
    if (!ranges.empty())
        return ranges;
    if (index >= count) {
        throw Error("shard index must be below the shard count")
            .with_shard(index, count);
    }
    return partition_trials(total, count)[index];
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

    // Every run executes one shard of the plan; everything outside its
    // ranges belongs to sibling processes. A plain run is shard 0 of 1,
    // so `mine` is all-true and the run owns the whole plan.
    const std::vector<TrialSpec> specs = plan_specs();
    const ShardAssignment &shard = options_.shard;
    const std::vector<TrialRange> ranges = shard.owned(specs.size());
    std::vector<bool> mine(pending.size(), false);
    std::uint64_t assigned = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
        for (const TrialRange &range : ranges) {
            if (range.contains(pending[i].spec.global_index))
                mine[i] = true;
        }
        assigned += mine[i] ? 1 : 0;
    }

    // Checkpoint/resume: replay the journal (the reader validates each
    // record against the plan — the sweep definition must not have
    // changed under us) and pre-fill those slots so only the remainder
    // executes. A respawned shard child resumes this way too.
    const bool journaling = journaling_enabled(options_);
    const JournalHeader header{options_.name, options_.master_seed,
                               plan_hash(specs), shard.index, shard.count};
    const std::string jpath =
        journal_path(options_.json_out, shard.index, shard.count);
    if (options_.resume && journaling) {
        for (JournalRecord &rec : read_journal(jpath, header, specs)) {
            const std::uint64_t i = rec.spec.global_index;
            run.outcomes[i] = std::move(rec.outcome);
            replayed[i] = true;
            // Records outside this shard's assignment (an earlier
            // requeue unit run by the same slot) are durable facts the
            // merge will collect; they are not "resumed work" here.
            if (mine[i])
                ++run.resumed;
        }
    }

    JournalWriter journal;
    if (journaling) {
        try {
            journal.open(jpath, header, /*append=*/options_.resume);
        } catch (const Error &e) {
            // A journal we cannot resume from is a configuration fault,
            // and a run that owns only part of the plan has no output
            // but its journal; a journal a whole-plan run merely cannot
            // create is not worth killing the run over — run unjournaled
            // and let the final report write surface the unwritable path
            // as its own exit code.
            if (options_.resume || assigned != pending.size())
                throw;
            std::cerr << "[runner] " << options_.name
                      << ": running without a checkpoint journal: "
                      << e.what() << "\n";
        }
    }

    const unsigned jobs =
        options_.replay_trial
            ? 1u
            : (options_.jobs != 0 ? options_.jobs
                                  : ThreadPool::default_threads());
    run.jobs_used = jobs;

    FaultPlan faults(options_.faults);
    if (journaling)
        faults.set_marker_base(options_.json_out);
    // Supervised shards prove liveness between trial completions; a
    // supervisor whose lease on this journal expires declares the shard
    // hung. Plain runs have no lease interval and start no thread.
    LeaseHeartbeat heartbeat(journal, shard.lease_interval_ms);
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

    const auto wall_start = std::chrono::steady_clock::now();
    if (jobs <= 1 || pending.size() <= 1) {
        for (std::size_t i = 0; i < pending.size(); ++i) {
            if (mine[i] && !replayed[i])
                execute(i);
        }
    } else {
        ThreadPool pool(jobs);
        for (std::size_t i = 0; i < pending.size(); ++i) {
            // Each task writes only its own pre-allocated slot;
            // wait_idle() publishes all slots to this thread.
            if (mine[i] && !replayed[i])
                pool.submit([&execute, i] { execute(i); });
        }
        pool.wait_idle();
    }
    run.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
    journal.close();

    // Aggregate strictly in plan order: output is independent of the
    // completion order above, and of which trials were journal replays.
    // A shard aggregates only its assigned trials; unless it owns the
    // whole plan its durable output is the journal, and a merge owns the
    // JSON.
    run.sink.set_meta(options_.name, options_.master_seed);
    for (std::size_t i = 0; i < pending.size(); ++i) {
        if (!mine[i])
            continue;
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
        if (!mine[i])
            continue;
        const TrialOutcome &outcome = run.outcomes[i];
        if (!outcome.failed())
            continue;
        std::cerr << "[runner] " << options_.name << " trial #"
                  << pending[i].spec.global_index << " ("
                  << pending[i].spec.scenario << "/"
                  << pending[i].spec.trial << ") "
                  << to_string(outcome.status);
        if (outcome.attempts > 1)
            std::cerr << " after " << outcome.attempts << " attempts";
        std::cerr << ": " << outcome.error
                  << " (replay with --jobs 1 --replay-trial "
                  << pending[i].spec.global_index << ")\n";
    }
    std::cerr << "[runner] " << options_.name;
    if (assigned != pending.size())
        std::cerr << " shard " << shard.index << "/" << shard.count;
    std::cerr << ": " << assigned << " trial(s) on " << jobs
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
    const char *p = data.data();
    std::size_t left = data.size();
    while (left > 0) {
        const ssize_t n = ::write(fd, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            std::cerr << "[runner] error writing " << tmp << ": "
                      << std::strerror(errno) << "\n";
            ::close(fd);
            std::remove(tmp.c_str());
            return false;
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    ::fsync(fd);
    ::close(fd);
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
    const ShardAssignment &shard = options.shard;
    if (!run.complete()) {
        std::cerr << "[runner] " << options.name << ": interrupted — "
                  << run.skipped << " trial(s) not run";
        if (journaling) {
            std::cerr << "; resume with --resume (journal: "
                      << journal_path(options.json_out, shard.index,
                                      shard.count)
                      << ")";
        }
        std::cerr << "\n";
        // No JSON: a partial report must never overwrite a committed one.
        return kExitPartial;
    }
    // Only a run with an outcome for every plan trial commits: a report
    // over part of the plan would look complete and be wrong.
    if (run.completed + run.failed == run.outcomes.size()) {
        if (!write_json_output(run.sink, options))
            return kExitJsonError;
        // The report is durably committed; the journals are redundant.
        if (journaling) {
            for (std::uint32_t k = 0; k < shard.count; ++k) {
                std::remove(
                    journal_path(options.json_out, k, shard.count).c_str());
            }
        }
    }
    return run.failed != 0 ? kExitTrialFailure : kExitOk;
}

}  // namespace anvil::runner

