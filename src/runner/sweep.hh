/**
 * @file
 * The parallel, fault-tolerant experiment-sweep engine.
 *
 * A Sweep is a list of scenarios, each contributing N independent trials.
 * run() hands the trials to --jobs workers that claim them one at a time,
 * in plan order, from a shared atomic index (each trial builds its own
 * simulated machine, so there is no shared mutable state), buffers every
 * outcome in its pre-assigned slot, and then feeds the sink in trial
 * order — making the aggregate output invariant under the number of
 * worker threads and their scheduling.
 *
 * Fault tolerance, end to end:
 *   - every trial runs inside a structured error boundary: an escaped
 *     exception (or watchdog timeout) becomes a TrialOutcome, recorded in
 *     the JSON as a "failed"/"timed_out" record — it never takes down
 *     sibling trials or the workers; it is never retried, because a
 *     trial is a pure function of its seed and would fail the same way;
 *   - with a file JSON destination, every completed trial is journaled
 *     (append-only, checksummed, fsync'd) to `<json-out>.journal`;
 *     --resume replays the journal and runs only the remainder, and the
 *     final JSON is byte-identical to an uninterrupted run;
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

/** How a sweep executes (not what it computes). */
struct SweepOptions {
    std::string name = "sweep";
    /// Workers (the calling thread is one); 0 means one per hardware
    /// thread.
    unsigned jobs = 0;
    /// Root of the per-trial seed derivation chain.
    std::uint64_t master_seed = 0x5eedULL;
    /// When set, run only this global trial index, serially.
    std::optional<std::uint64_t> replay_trial;
    /// JSON report destination: empty = none, "-" = stdout, else a path.
    std::string json_out;
    /// Per-trial simulated-event budget (memory accesses); 0 = unlimited.
    std::uint64_t trial_timeout = 0;
    /// Replay the run's journal and run only the missing trials.
    bool resume = false;
    /// Deterministic fault injections (tests / CI).
    std::vector<FaultSpec> faults;
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
    /// The resolved --jobs value (1 for a replay), even when fewer
    /// trials than that were left to run.
    unsigned jobs_used = 0;

    /**
     * False when a shutdown drain left trials unrun (resumable); true
     * exactly when finish_sweep() commits the report.
     */
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
     *        failure while resuming.
     */
    SweepRun run();

    const SweepOptions &options() const { return options_; }

    /**
     * The full deterministic trial plan (every scenario × trial, seeds
     * assigned) — what a --resume journal is validated against.
     * Independent of replay filtering.
     */
    std::vector<TrialSpec> plan_specs() const;

  private:
    struct Pending {
        TrialSpec spec;
        const TrialFn *fn;
    };

    /** All trials in deterministic order, seeds assigned. */
    std::vector<Pending> plan() const;

    /** The specs of @p pending, in order. */
    static std::vector<TrialSpec>
    specs_of(const std::vector<Pending> &pending);

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
 * Finishes a sweep run — its one commit path. A complete run writes the
 * JSON report and, once it is durably committed, removes the journal.
 * Maps the run's state to its ExitCode — kExitPartial for an interrupted
 * run (journal kept for --resume), kExitJsonError when the report could
 * not be written, kExitTrialFailure when any trial failed, else kExitOk.
 */
int finish_sweep(const SweepRun &run, const SweepOptions &options);

}  // namespace anvil::runner

#endif  // ANVIL_RUNNER_SWEEP_HH
