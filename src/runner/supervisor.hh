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

#include "runner/options.hh"
#include "runner/shard.hh"
#include "runner/sweep.hh"
#include "runner/trial.hh"

namespace anvil::runner {

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
 * slot is retired / the operator shuts it down). @p sweep names the
 * campaign (sweep name, master seed, and the JSON path the shard
 * journals live beside); @p cli sets the shard count, respawn budget,
 * lease timeout and backoff. Each shard child re-executes this binary
 * with @p child_args — the `shard` verb, the sweep name and its
 * positionals, and every forwarded runner flag — followed by the
 * per-shard assignment flags the supervisor appends itself. Children
 * heartbeat every lease_timeout_ms / 4. Purely a process-level loop:
 * the trials themselves run in the children, and the caller is
 * responsible for the merge afterwards.
 * @throw Error for configuration-level faults (an existing shard
 *        journal from a different sweep, an unspawnable child binary).
 */
SupervisorReport supervise(const std::vector<TrialSpec> &plan,
                           const SweepOptions &sweep,
                           const SupervisorCli &cli,
                           const std::vector<std::string> &child_args);

}  // namespace anvil::runner

#endif  // ANVIL_RUNNER_SUPERVISOR_HH
