/**
 * @file
 * Deterministic fault injection for the experiment runner.
 *
 * A FaultPlan forces failures at chosen (scenario, trial) coordinates so
 * tests and CI can exercise every fault path of the sweep engine — error
 * boundaries, retries, watchdog timeouts, journaling, resume, and the
 * SIGTERM drain — without depending on real infrastructure flaking at
 * the right moment. All injected behaviour is a pure function of the
 * trial's identity (and, for corruption, of the trial RNG's named
 * "fault" sub-stream), so an injection is exactly replayable: the same
 * command line fails the same trial the same way every run.
 *
 * CLI syntax (repeatable): --inject-fault kind@scenario:trial
 *
 *   throw        the trial throws before running (fails every attempt)
 *   flaky        the trial throws on its first attempt only — succeeds
 *                when retried, with the identical re-derived seed
 *                (exercises --retries determinism)
 *   hang         the trial spins consuming simulated events until the
 *                --trial-timeout watchdog aborts it (an error when no
 *                timeout is configured, since it would never terminate)
 *   corrupt      the trial runs normally, then its counters are
 *                perturbed by a seed-derived delta (silent corruption;
 *                exercises downstream detection such as resume
 *                byte-comparisons)
 *   stall        SIGSTOP to the own process before the trial runs, on
 *                every execution — every thread freezes, so a test or
 *                CI step can deliver SIGTERM or SIGKILL at a known point
 *                mid-sweep; a SIGCONT lets the trial continue normally
 */
#ifndef ANVIL_RUNNER_FAULT_HH
#define ANVIL_RUNNER_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runner/trial.hh"

namespace anvil::runner {

/** What an injected fault does to its trial. */
enum class FaultKind : std::uint8_t {
    kThrow,
    kFlaky,
    kHang,
    kCorrupt,
    kStall,  ///< SIGSTOP to the own process before the trial
};

/** One injection coordinate: fail trial @p trial of @p scenario. */
struct FaultSpec {
    FaultKind kind = FaultKind::kThrow;
    std::string scenario;
    std::uint64_t trial = 0;
};

/**
 * Parses "kind@scenario:trial" (the trial index follows the last ':',
 * so scenario names may themselves contain ':').
 * @throw Error on malformed input.
 */
FaultSpec parse_fault(const std::string &text);

/** The faults active for one sweep. */
class FaultPlan
{
  public:
    FaultPlan() = default;
    explicit FaultPlan(std::vector<FaultSpec> faults)
        : faults_(std::move(faults))
    {
    }

    bool empty() const { return faults_.empty(); }

    /** The fault aimed at @p spec, or nullptr. */
    const FaultSpec *match(const TrialSpec &spec) const;

    /**
     * Runs the pre-execution stage of @p fault for attempt @p attempt
     * (1-based): throws for kThrow always and kFlaky on the first
     * attempt; spins the watchdog down for kHang; stops the process for
     * kStall. No-op for kCorrupt.
     */
    static void inject_before(const FaultSpec &fault,
                              const TrialContext &ctx, unsigned attempt);

    /**
     * Runs the post-execution stage: perturbs @p result's counters and
     * values by deltas drawn from the trial's "fault" sub-stream
     * (kCorrupt only).
     */
    static void inject_after(const FaultSpec &fault, const TrialSpec &spec,
                             TrialResult &result);

  private:
    std::vector<FaultSpec> faults_;
};

}  // namespace anvil::runner

#endif  // ANVIL_RUNNER_FAULT_HH
