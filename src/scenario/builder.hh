/**
 * @file
 * ScenarioBuilder: instantiates a declarative ScenarioSpec into a running
 * multi-tenant machine and executes it as one runner trial.
 *
 * The build order is fixed and deliberate — it reproduces, step for
 * step, the construction sequence the hand-written experiments used, so
 * migrated scenarios stay bit-identical for a fixed trial seed:
 *
 *   1. machine (its PMU included), with the trial's "vm" sub-stream
 *      seeding the page allocator; then every attacker tenant's process
 *      (buffer mmap + pagemap scan), in tenant order;
 *   2. hardware mitigation attached to the DRAM device;
 *   3. pre-detector clock advance (layout/refresh-phase jitter);
 *   4. workload tenants' processes (each seeded from its named
 *      sub-stream), in tenant order;
 *   5. detector + ground-truth oracle + start;
 *   6. free-run advance (the attack starts at a seed-chosen phase);
 *   7. attack target selection and hammer construction, in tenant order.
 *
 * The run phase hands every tenant to the TenantScheduler
 * (scheduler.hh): round-robin quanta measured in simulated accesses,
 * which with all-default quanta reproduces the legacy interleave loops
 * exactly — single-tenant specs are the degenerate 1-tenant case.
 *
 * Ground-truth labeling: the builder installs an oracle that returns
 * true exactly while the run phase's attack is in flight, so a detection
 * fired outside the attack window (e.g. during the free run) counts as
 * a false positive. Detections additionally carry the offending pid, so
 * emit() can score each one against the tenant the detector blamed
 * (cross-tenant false-positive accounting).
 */
#ifndef ANVIL_SCENARIO_BUILDER_HH
#define ANVIL_SCENARIO_BUILDER_HH

#include <memory>
#include <vector>

#include "anvil/anvil.hh"
#include "attack/hammer.hh"
#include "mitigations/mitigation.hh"
#include "runner/options.hh"
#include "runner/result_sink.hh"
#include "runner/trial.hh"
#include "scenario/spec.hh"
#include "scenario/testbed.hh"
#include "workload/workload.hh"

namespace anvil::scenario {

/**
 * One instantiated attacker: its process (mapped and scanned in build
 * step 1), then the hammer kernel plus its target (step 7).
 */
struct BuiltAttack {
    std::unique_ptr<Attacker> attacker;
    std::unique_ptr<attack::Hammer> hammer;
    std::uint32_t flat_bank = 0;
    std::uint32_t victim_row = 0;
};

/** One tenant resolved against the built machine. */
struct BuiltTenant {
    std::string name;           ///< normalized attribution label
    bool is_attacker = false;
    Pid pid = kInvalidPid;      ///< the tenant's address space
    std::size_t payload = 0;    ///< index into attacks() or workloads()
    std::uint64_t run_start_ops = 0;  ///< workload ops() when run began
};

/** Per-iteration cost model measured by RunMode::kPatternMeasure. */
struct PatternStats {
    double misses_per_iteration = 0.0;
    double accesses_per_iteration = 0.0;
    double ns_per_iteration = 0.0;
    double cycles_per_iteration = 0.0;
    double hammers_per_refresh = 0.0;
    double aggressor_activation_share = 0.0;
};

/**
 * A spec instantiated into live components. Owned by the builder; tests
 * may drive the machine between build() and run() (e.g. to fire a
 * detection outside the attack window).
 */
class Execution
{
  public:
    mem::MemorySystem &machine() { return *machine_; }
    const mem::MemorySystem &machine() const { return *machine_; }
    pmu::Pmu &pmu() { return machine_->pmu(); }
    /** The detector; nullptr when the scenario runs unprotected. */
    detector::Anvil *anvil() { return anvil_.get(); }
    /** The hardware mitigation tracker; nullptr when none configured. */
    mitigations::Mitigation *mitigation() { return mitigation_.get(); }
    std::vector<BuiltAttack> &attacks() { return attacks_; }
    std::vector<std::unique_ptr<workload::Workload>> &
    workloads()
    {
        return workloads_;
    }

    /** All tenants in schedule (= spec declaration) order. */
    const std::vector<BuiltTenant> &tenants() const { return tenants_; }

    /**
     * Index into tenants() of the tenant owning @p pid, or
     * tenants().size() when no tenant owns it (e.g. kInvalidPid).
     */
    std::size_t tenant_index_of(Pid pid) const;

    /** True exactly while the run phase's attack is hammering. */
    bool attack_active() const { return attack_active_; }
    double boost() const { return boost_; }
    const PatternStats &pattern() const { return pattern_; }

  private:
    friend class ScenarioBuilder;

    std::unique_ptr<mem::MemorySystem> machine_;
    std::unique_ptr<mitigations::Mitigation> mitigation_;
    std::vector<std::unique_ptr<workload::Workload>> workloads_;
    double boost_ = 1.0;
    std::unique_ptr<detector::Anvil> anvil_;
    std::vector<BuiltAttack> attacks_;
    std::vector<BuiltTenant> tenants_;

    bool attack_active_ = false;
    Tick run_start_ = 0;  ///< the clock when run() began, the attack's start
    double run_seconds_ = 0.0;
    attack::HammerResult hammer_result_;
    PatternStats pattern_;
};

/** Instantiates and executes one ScenarioSpec as one trial. */
class ScenarioBuilder
{
  public:
    /** Keeps references to @p spec and @p ctx: both must outlive it. */
    ScenarioBuilder(const ScenarioSpec &spec,
                    const runner::TrialContext &ctx);
    ScenarioBuilder(ScenarioSpec &&, const runner::TrialContext &) = delete;
    ScenarioBuilder(const ScenarioSpec &, runner::TrialContext &&) = delete;
    ScenarioBuilder(ScenarioSpec &&, runner::TrialContext &&) = delete;

    /**
     * Builds the machine, tenants, detector, and attacks in the fixed
     * order documented above. @throw std::runtime_error when a required
     * attack target does not exist in the scanned buffer.
     */
    Execution &build();

    /** Executes the run phase per the spec's RunSpec. @pre build() ran. */
    void run();

    /** Emits the spec's outputs, in order. @pre run() ran. */
    runner::TrialResult emit() const;

    /** build() + run() + emit() — the TrialFn body of every scenario. */
    static runner::TrialResult run_trial(const ScenarioSpec &spec,
                                         const runner::TrialContext &ctx);

  private:
    Tick draw(const PhaseJitter &jitter) const;

    const ScenarioSpec &spec_;
    const runner::TrialContext &ctx_;
    std::unique_ptr<Execution> exec_;
};

/**
 * Runs a whole SweepSpec on the parallel experiment runner with the
 * shared CLI options (--jobs/--master-seed/--trials/--replay-trial/
 * --trial-timeout): validates the spec, sets cli.sweep.name to the
 * sweep's name, registers every cell with its per-cell fixed trial count
 * (else cli.trials_or(default)), runs it and applies the sweep's
 * finalize hook to the run's sink. Does not render: the driver prints
 * spec.render's table before committing the report.
 * @throw Error when the spec fails validation (validate.hh), or on the
 *        runner's configuration-level fault (Sweep::run).
 */
runner::SweepRun run_sweep(const SweepSpec &spec, runner::CliOptions &cli);

}  // namespace anvil::scenario

#endif  // ANVIL_SCENARIO_BUILDER_HH
