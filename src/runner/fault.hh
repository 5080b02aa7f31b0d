/**
 * @file
 * Deterministic fault injection for the experiment runner.
 *
 * A FaultPlan forces failures at chosen (scenario, trial) coordinates so
 * tests and CI can exercise the sweep engine's fault paths — the
 * per-trial error boundary and the watchdog timeout — without depending
 * on a real trial failing. All injected behaviour is a pure function of the trial's
 * identity, so an injection is exactly replayable: the same command line
 * fails the same trial the same way every run.
 *
 * CLI syntax (repeatable): --inject-fault kind@scenario:trial, where
 * the coordinate must name a trial of the sweep's plan.
 *
 *   throw        the trial throws before running
 *   hang         the trial spins consuming simulated events until the
 *                --trial-timeout watchdog aborts it (an error when no
 *                timeout is configured, since it would never terminate)
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
     * Refuses a fault aimed at no trial of @p plan (the sweep's full
     * plan), which would otherwise silently test the fault-free path.
     * @throw Error naming the fault and the planned scenarios.
     */
    void check_planned(const std::vector<TrialSpec> &plan) const;

    /**
     * Runs @p fault before its trial body: throws for kThrow, spins the
     * watchdog down for kHang.
     */
    static void inject_before(const FaultSpec &fault,
                              const TrialContext &ctx);

  private:
    std::vector<FaultSpec> faults_;
};

}  // namespace anvil::runner

#endif  // ANVIL_RUNNER_FAULT_HH
