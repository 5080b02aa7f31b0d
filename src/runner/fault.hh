/**
 * @file
 * Deterministic fault injection for the experiment runner.
 *
 * A FaultPlan forces failures at chosen (scenario, trial) coordinates so
 * tests and CI can exercise every fault path of the sweep engine — error
 * boundaries, watchdog timeouts, journaling, resume, and the SIGTERM
 * drain — without depending on real infrastructure failing at the right
 * moment. All injected behaviour is a pure function of the trial's
 * identity, so an injection is exactly replayable: the same command line
 * fails the same trial the same way every run.
 *
 * CLI syntax (repeatable): --inject-fault kind@scenario:trial
 *
 *   throw        the trial throws before running
 *   hang         the trial spins consuming simulated events until the
 *                --trial-timeout watchdog aborts it (an error when no
 *                timeout is configured, since it would never terminate)
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
    kHang,
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
     * Runs @p fault before its trial body: throws for kThrow, spins the
     * watchdog down for kHang, stops the process for kStall.
     */
    static void inject_before(const FaultSpec &fault,
                              const TrialContext &ctx);

  private:
    std::vector<FaultSpec> faults_;
};

}  // namespace anvil::runner

#endif  // ANVIL_RUNNER_FAULT_HH
