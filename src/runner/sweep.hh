/**
 * @file
 * The parallel, fault-tolerant experiment-sweep engine.
 *
 * A Sweep is a list of scenarios, each contributing N independent trials.
 * run() fans the trials out over a fixed-size thread pool (each trial
 * builds its own simulated machine, so there is no shared mutable state),
 * buffers every outcome in its pre-assigned slot, and then feeds the sink
 * in trial order — making the aggregate output invariant under the
 * number of worker threads and their scheduling.
 *
 * Fault tolerance, end to end:
 *   - every trial runs inside a structured error boundary: an escaped
 *     exception (or watchdog timeout) becomes a TrialOutcome, recorded in
 *     the JSON as a "failed"/"timed_out" record — it never takes down
 *     sibling trials or the pool;
 *   - --retries N re-runs a failing trial with its identical re-derived
 *     seed, so a flaky-infra retry cannot change results;
 *   - with a file JSON destination, every completed trial is journaled
 *     (append-only, checksummed, fsync'd) to `<json-out>.journal`;
 *     --resume replays the journal and runs only the remainder, and the
 *     final JSON is byte-identical to an uninterrupted run;
 *   - every run executes one ShardAssignment: a plain run is shard 0 of
 *     1 and owns the whole plan, so it shares its journal format, replay
 *     and commit path with the shards of a supervised campaign;
 *   - request_shutdown() (wired to SIGINT/SIGTERM by the driver) drains
 *     the sweep: in-flight trials finish, unstarted trials are skipped,
 *     the journal stays on disk for --resume, and finish_sweep() maps
 *     the state to a distinct exit code.
 *
 * Replay: every trial's seed is a pure function of (master seed, scenario,
 * trial index), so `--replay-trial N` re-runs exactly one trial of the
 * sweep serially — the debugging workflow for anything a parallel run
 * surfaces.
 */
#ifndef ANVIL_RUNNER_SWEEP_HH
#define ANVIL_RUNNER_SWEEP_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "runner/fault.hh"
#include "runner/result_sink.hh"
#include "runner/trial.hh"

namespace anvil::runner {

/** An inclusive range of global trial indices. */
struct TrialRange {
    std::uint64_t first = 0;
    std::uint64_t last = 0;

    bool
    contains(std::uint64_t index) const
    {
        return index >= first && index <= last;
    }
    std::uint64_t size() const { return last - first + 1; }
};

/**
 * One shard's slice of a campaign: which trials this process owns, its
 * identity within the shard set, and how often it proves liveness. Every
 * Sweep::run() executes one; the default — shard 0 of 1 — owns the whole
 * plan. The run journals to journal_path(json_out, index, count), and
 * finish_sweep() commits a report only for a run that owns the whole
 * plan (a merge of the shard journals commits the others').
 */
struct ShardAssignment {
    std::uint32_t index = 0;  ///< shard slot K
    std::uint32_t count = 1;  ///< shards in the campaign
    /// Trials this process owns; disjoint, ascending. Empty = shard K's
    /// slice of an even partition of the plan — all of it for shard 0
    /// of 1, nothing for a shard past the trial count (which still
    /// leaves a valid, bare journal).
    std::vector<TrialRange> ranges;
    /// Lease heartbeat period for supervised shards; 0 = no heartbeat.
    std::uint64_t lease_interval_ms = 0;

    /**
     * The trials this shard owns in a plan of @p total trials.
     * @throw Error when index is not below count.
     */
    std::vector<TrialRange> owned(std::uint64_t total) const;
};

/** How a sweep executes (not what it computes). */
struct SweepOptions {
    std::string name = "sweep";
    /// Worker threads; 0 means one per hardware thread.
    unsigned jobs = 0;
    /// Root of the per-trial seed derivation chain.
    std::uint64_t master_seed = 0x5eedULL;
    /// When set, run only this global trial index, serially.
    std::optional<std::uint64_t> replay_trial;
    /// JSON report destination: empty = none, "-" = stdout, else a path.
    std::string json_out;
    /// Re-run a failed trial up to this many extra times (same seed).
    unsigned retries = 0;
    /// Per-trial simulated-event budget (memory accesses); 0 = unlimited.
    std::uint64_t trial_timeout = 0;
    /// Replay this shard's journal and run only the missing trials.
    bool resume = false;
    /// Deterministic fault injections (tests / CI).
    std::vector<FaultSpec> faults;
    /// The slice of the plan this run executes (default: all of it).
    ShardAssignment shard;
};

/** Computes one trial's TrialResult. Must be thread-safe & self-contained. */
using TrialFn = std::function<TrialResult(const TrialContext &)>;

/** Everything one Sweep::run() produced. */
struct SweepRun {
    ResultSink sink;
    /// Per-trial outcomes in plan order (replayed, executed, or skipped).
    std::vector<TrialOutcome> outcomes;
    std::uint64_t completed = 0;  ///< trials that ended ok
    std::uint64_t failed = 0;     ///< failed + timed-out trials
    std::uint64_t skipped = 0;    ///< drained by a shutdown request
    std::uint64_t resumed = 0;    ///< replayed from the journal
    double wall_seconds = 0.0;
    unsigned jobs_used = 0;

    /** False when a shutdown drain left trials unrun (resumable). */
    bool complete() const { return skipped == 0; }
};

/** A set of scenarios executed as one (possibly parallel) batch. */
class Sweep
{
  public:
    explicit Sweep(SweepOptions options);

    /**
     * Registers @p trials trials of @p scenario. Trials are seeded
     * individually; @p fn must not touch anything outside its context.
     */
    void add_scenario(std::string scenario, std::uint64_t trials,
                      TrialFn fn);

    /**
     * Runs every registered trial and returns the aggregated results and
     * per-trial outcomes. Exceptions escaping a trial body are captured
     * as that trial's outcome, never propagated (one bad trial must not
     * sink a sweep).
     * @throw Error only for configuration-level faults: a --resume
     *        journal that belongs to a different sweep, or journal I/O
     *        failure (when resuming, or when the run owns only part of
     *        the plan and the journal is its sole output).
     */
    SweepRun run();

    const SweepOptions &options() const { return options_; }

    /**
     * The full deterministic trial plan (every scenario × trial, seeds
     * assigned) — what a supervisor partitions into shards and a merge
     * validates journals against. Independent of shard assignment and
     * replay filtering.
     */
    std::vector<TrialSpec> plan_specs() const;

  private:
    struct Pending {
        TrialSpec spec;
        const TrialFn *fn;
    };

    /** All trials in deterministic order, seeds assigned. */
    std::vector<Pending> plan() const;

    struct Scenario {
        std::string name;
        std::uint64_t trials;
        TrialFn fn;
    };

    SweepOptions options_;
    std::vector<Scenario> scenarios_;
};

// ---------------------------------------------------------------------------
// Graceful shutdown
// ---------------------------------------------------------------------------

/**
 * Requests a sweep drain: trials not yet started are skipped, in-flight
 * trials finish, the journal is flushed. Async-signal-safe — the driver
 * calls this from its SIGINT/SIGTERM handler; tests call it directly.
 */
void request_shutdown();

/** True once request_shutdown() was called (until clear_shutdown()). */
bool shutdown_requested();

/** Re-arms the drain flag (tests; a fresh process starts cleared). */
void clear_shutdown();

/** Installs SIGINT/SIGTERM handlers that call request_shutdown(). */
void install_signal_handlers();

// ---------------------------------------------------------------------------
// Output + exit codes
// ---------------------------------------------------------------------------

/** Process exit codes shared by every sweep binary. */
enum ExitCode : int {
    kExitOk = 0,            ///< sweep complete, every trial ok
    kExitJsonError = 1,     ///< report requested but not writable
    kExitUsage = 2,         ///< bad command line / unknown sweep
    kExitPartial = 3,       ///< drained by shutdown; resumable
    kExitTrialFailure = 4,  ///< complete, but >= 1 trial failed
    kExitShardDead = 5,     ///< supervisor: trials outstanding after
                            ///< every shard slot exhausted its respawn
                            ///< budget (rerun `supervise` to continue)
    kExitMergeError = 6,    ///< merge: shard journals incomplete,
                            ///< conflicting, or invalid — no report
                            ///< was written
};

/**
 * Writes the sweep's JSON report according to @p options.json_out. File
 * writes are atomic (temp file + rename): a crash can never leave a
 * half-written report where a committed one stood.
 * @return false only if a report was requested and could not be written;
 *         callers should propagate that as a nonzero exit code.
 */
bool write_json_output(const ResultSink &sink, const SweepOptions &options);

/**
 * Finishes a sweep run — the one commit path of plain runs, shards and
 * merged campaigns. A complete run that owns the whole plan (every plan
 * trial has an outcome in @p run) writes the JSON report and, once it is
 * durably committed, removes the campaign's journals (all
 * options.shard.count of them). A run that owns only part of the plan
 * writes no report: its journal is its output, for a merge to fold.
 * Maps the run's state to its ExitCode — kExitPartial for an interrupted
 * run (journal kept for --resume), kExitJsonError when the report could
 * not be written, kExitTrialFailure when any trial failed, else kExitOk.
 */
int finish_sweep(const SweepRun &run, const SweepOptions &options);

}  // namespace anvil::runner

#endif  // ANVIL_RUNNER_SWEEP_HH
