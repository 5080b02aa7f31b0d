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
 *   - finish_sweep() commits the report atomically (temp file, fsync,
 *     rename), so a run that dies — Ctrl-C, SIGKILL, OOM — leaves the
 *     previous report or none, never a torn one. Nothing is
 *     checkpointed: the whole reproduction takes about a minute, so an
 *     interrupted sweep is simply run again.
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
};

/** Computes one trial's TrialResult. Must be thread-safe & self-contained. */
using TrialFn = std::function<TrialResult(const TrialContext &)>;

/** Everything one Sweep::run() produced. */
struct SweepRun {
    ResultSink sink;
    /// Per-trial outcomes in plan order.
    std::vector<TrialOutcome> outcomes;
    std::uint64_t completed = 0;  ///< trials that ended ok
    std::uint64_t failed = 0;     ///< failed + timed-out trials
    /// Always 0: a run executes every trial it plans. perfbench's driver
    /// still reports the field.
    std::uint64_t skipped = 0;
    double wall_seconds = 0.0;
    /// The resolved --jobs value (1 for a replay), even when fewer
    /// trials than that were planned.
    unsigned jobs_used = 0;
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
     * @throw Error only for a configuration-level fault, before any
     *        trial runs: a --replay-trial index past the end of the plan.
     */
    SweepRun run();

    const SweepOptions &options() const { return options_; }

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
// Output + exit codes
// ---------------------------------------------------------------------------

/** Process exit codes shared by every sweep binary (3 is unassigned). */
enum ExitCode : int {
    kExitOk = 0,            ///< sweep complete, every trial ok
    kExitJsonError = 1,     ///< report requested but not writable
    kExitUsage = 2,         ///< bad command line / unknown sweep
    kExitTrialFailure = 4,  ///< complete, but >= 1 trial failed
};

/**
 * Writes the sweep's JSON report according to @p options.json_out. File
 * writes are atomic (temp file + rename): a crash can never leave a
 * half-written report where a committed one stood. A FIFO or device node
 * is written in place.
 * @return false only if a report was requested and could not be written;
 *         callers should propagate that as a nonzero exit code.
 */
bool write_json_output(const ResultSink &sink, const SweepOptions &options);

/**
 * Finishes a sweep run — its one commit path: writes the JSON report and
 * maps the run to its ExitCode — kExitJsonError when the report could
 * not be written, kExitTrialFailure when any trial failed, else kExitOk.
 */
int finish_sweep(const SweepRun &run, const SweepOptions &options);

}  // namespace anvil::runner

#endif  // ANVIL_RUNNER_SWEEP_HH
