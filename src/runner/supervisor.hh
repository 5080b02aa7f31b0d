/**
 * @file
 * The multi-process sweep supervisor (anvil-sim supervise).
 *
 * The supervisor partitions a sweep's trial plan into contiguous ranges
 * and runs each as a child `anvil-sim shard` process — its own failure
 * domain, its own checkpoint journal. It then babysits the fleet:
 *
 *   - **Crash detection.** A child that exits abnormally (SIGKILL, OOM,
 *     SIGABRT, a real bug) is detected by waitpid; its journal — every
 *     completed trial fsync'd, the torn tail truncated by the journal's
 *     recovery — tells the supervisor exactly which trials are durable.
 *   - **Hang detection.** A healthy shard's journal grows continuously
 *     (trial records, plus lease heartbeats between them). A shard whose
 *     journal stops growing past the lease timeout is declared wedged
 *     and SIGKILLed — catching livelocks and stopped processes that
 *     waitpid alone never reports.
 *   - **Respawn with exponential backoff.** A dead shard is respawned
 *     over only its remaining trials; its journal replay makes the
 *     respawn resume, not restart. Each respawn doubles the delay.
 *   - **Requeue (graceful degradation).** A shard slot that exhausts its
 *     respawn budget is retired and its remaining trials are queued for
 *     surviving slots to pick up as they finish their own ranges. The
 *     campaign only fails — exit kExitShardDead, journals kept, rerun
 *     `supervise` to continue — when every slot has been retired with
 *     work outstanding.
 *
 * Recovery never changes results: every trial's outcome is a pure
 * function of (master seed, scenario, trial), so it does not matter
 * which process finally runs it, after how many crashes.
 */
#ifndef ANVIL_RUNNER_SUPERVISOR_HH
#define ANVIL_RUNNER_SUPERVISOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runner/shard.hh"
#include "runner/trial.hh"

namespace anvil::runner {

/** How a supervised campaign executes. */
struct SupervisorOptions {
    /// Binary to spawn for each shard (normally /proc/self/exe).
    std::string exe;
    /// argv tail shared by every shard: the `shard` verb, the sweep
    /// name and its positionals, and every forwarded runner flag.
    /// The supervisor appends the per-shard flags itself.
    std::vector<std::string> child_args;
    /// Campaign JSON destination; shard journals live beside it.
    std::string json_out;
    /// Sweep identity (shard-journal header validation).
    std::string sweep;
    std::uint64_t master_seed = 0;
    std::uint32_t shards = 4;
    /// Process deaths tolerated per slot before it is retired and its
    /// remaining trials are requeued onto surviving slots.
    unsigned respawn_budget = 3;
    /// Journal-growth lease: a running shard whose journal has not
    /// grown for this long is declared hung and SIGKILLed.
    std::uint64_t lease_timeout_ms = 10000;
    /// Heartbeat period passed to children; 0 = lease_timeout_ms / 4.
    std::uint64_t lease_interval_ms = 0;
    /// Initial respawn delay; doubles with each consecutive death.
    std::uint64_t backoff_ms = 200;
    /// Supervision loop poll period.
    std::uint64_t poll_ms = 25;
};

/** What a supervision run did and where it ended. */
struct SupervisorReport {
    /// Every plan trial has a durable record in some shard journal.
    bool complete = false;
    /// True when an operator shutdown (SIGINT/SIGTERM) drained the
    /// campaign rather than shard death exhausting it.
    bool interrupted = false;
    unsigned respawns = 0;      ///< children restarted after a death
    unsigned requeues = 0;      ///< work units moved to surviving slots
    unsigned retired_slots = 0; ///< slots that exhausted their budget
    std::uint64_t outstanding = 0;  ///< trials still not durable
};

/** Deterministic respawn delay: @p base doubled per prior death. */
std::uint64_t backoff_delay_ms(std::uint64_t base, unsigned attempt);

/**
 * Runs the campaign over @p plan to durable completion (or until every
 * slot is retired / the operator shuts it down). Purely a process-level
 * loop: the trials themselves run in the children, and the caller is
 * responsible for the merge afterwards.
 * @throw Error for configuration-level faults (an existing shard
 *        journal from a different sweep, an unspawnable child binary).
 */
SupervisorReport supervise(const std::vector<TrialSpec> &plan,
                           const SupervisorOptions &options);

}  // namespace anvil::runner

#endif  // ANVIL_RUNNER_SUPERVISOR_HH
