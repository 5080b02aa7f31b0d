/**
 * @file
 * The declarative scenario layer: every paper experiment — machine,
 * detector, attacks, background workloads, phase jitter, run mode, and
 * measurement outputs — expressed as data.
 *
 * A ScenarioSpec is one cell of a paper table/figure (one runner
 * scenario: a row label plus N trials). A SweepSpec is a whole
 * table/figure: an ordered list of cells plus sweep-level metadata, an
 * optional finalize hook computing derived aggregates, and an optional
 * render hook printing the paper's table from the finished report.
 * Specs carry no behaviour; ScenarioBuilder (builder.hh) instantiates a
 * spec into a running testbed, and the ScenarioRegistry (registry.hh)
 * names whole sweeps so one driver binary can run any of them.
 *
 * Evaluations of rowhammer defenses live or die on how easily new
 * attacker/workload combinations can be composed ("Another Flip in the
 * Wall" broke ANVIL-class defenses by varying exactly these knobs) —
 * hence scenarios are data, not copy-pasted C++.
 */
#ifndef ANVIL_SCENARIO_SPEC_HH
#define ANVIL_SCENARIO_SPEC_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "anvil/config.hh"
#include "common/units.hh"
#include "mem/memory_system.hh"

namespace anvil::runner {
class ResultSink;
struct CliOptions;
}  // namespace anvil::runner

namespace anvil::scenario {

/** Which hammer kernel the attacker runs. */
enum class AttackKind {
    kClflushSingleSided,
    kClflushDoubleSided,
    kClflushFreeDoubleSided,
    /// Aggressors at distance 2 (needs second_neighbor_weight > 0).
    kClflushHalfDouble,
    /// Round-robin over many distinct rows: stresses mitigation tracker
    /// tables without hammering any single row.
    kTrackerThrash,
};

/// The paper's attacker buffer: 64 MB mapped and scanned via pagemap.
inline constexpr std::uint64_t kDefaultAttackBufferBytes = 64ULL << 20;

/**
 * One attacker in the scenario. Its process maps and scans a
 * kDefaultAttackBufferBytes buffer (all attackers together must fit the
 * huge-page pool; validate.cc enforces it), then targets the first
 * scanned candidate whose victim has the module's minimum flip threshold
 * (slice-compatible, for the CLFLUSH-free attack), as every paper
 * experiment does.
 */
struct AttackSpec {
    AttackKind kind = AttackKind::kClflushDoubleSided;
};

/** One background (or foreground) benign workload. */
struct WorkloadSpec {
    /// SPEC2006 profile name (workload::spec_profile).
    std::string profile;
    /// Named trial sub-stream seeding the workload; empty keeps the
    /// profile's built-in seed (legacy fixed-seed scenarios).
    std::string seed_stream;
    /// Apply rate-boosted importance sampling to the thrash-phase rate
    /// (false-positive measurements; see boost_thrash_rate).
    bool boost_thrash = false;
};


/**
 * How detections are labeled against ground truth. Labeling never feeds
 * back into the detector — it only drives false-positive accounting.
 */
enum class GroundTruth {
    /// The oracle returns true exactly while the scenario's attack phase
    /// is running: a detection before the attack starts (e.g. during the
    /// free-run window) counts as a false positive. This is the correct
    /// scoping and the default.
    kAttackLifetime,
    /// No oracle installed: every detection is labeled "not an attack"
    /// (the detector's legacy default). Kept only for scenarios whose
    /// committed JSON predates attack-lifetime scoping.
    kUnlabeled,
};

/** A fixed advance plus a seed-stream-chosen jitter (phase decorrelation). */
struct PhaseJitter {
    Tick base = 0;
    Tick jitter = 0;        ///< advance += seed_for(stream) % jitter
    std::string stream;     ///< named trial sub-stream drawn from
    bool empty() const { return base == 0 && jitter == 0; }
};

/**
 * One tenant process of a multi-tenant scenario: an attacker OR a benign
 * workload, co-scheduled with every other tenant on the one shared
 * machine (shared frame allocator, caches, DRAM, and detector). A
 * scenario declares every process it runs as a tenant (attacker_tenant
 * and workload_tenant below build one); single-process specs are just
 * the one-entry case. Its attribution label (the JSON counter suffix of
 * "ops/<label>", "detections/<label>") derives from the payload
 * (tenant_labels in scheduler.hh).
 */
struct TenantSpec {
    /// Exactly one of attack/workload must be set (validate.cc).
    std::optional<AttackSpec> attack;
    std::optional<WorkloadSpec> workload;

    /// Scheduler quantum in completed memory accesses: how much of this
    /// tenant runs before the next tenant gets the core. 1 reproduces
    /// the legacy one-step-per-turn interleave; larger quanta model
    /// coarser OS time slices. A tenant step that completes no counted
    /// access (e.g. a pure-CLFLUSH iteration) still consumes one unit,
    /// so every quantum makes forward progress.
    std::uint64_t quantum_accesses = 1;
};

/** A tenant running @p attack, granted @p quantum_accesses per turn. */
inline TenantSpec
attacker_tenant(AttackSpec attack = {}, std::uint64_t quantum_accesses = 1)
{
    TenantSpec t;
    t.attack = attack;
    t.quantum_accesses = quantum_accesses;
    return t;
}

/** A tenant running @p workload, granted @p quantum_accesses per turn. */
inline TenantSpec
workload_tenant(WorkloadSpec workload, std::uint64_t quantum_accesses = 1)
{
    TenantSpec t;
    t.workload = std::move(workload);
    t.quantum_accesses = quantum_accesses;
    return t;
}

/** What the run phase of the scenario does. */
enum class RunMode {
    /// Interleave all tenants round-robin for `duration`.
    kInterleaveFor,
    /// Each workload executes `ops` operations (fixed-work slowdowns).
    kWorkloadOps,
    /// Align to the victim's refresh, then run the hammer kernel until
    /// first flip or one refresh period plus `duration` of grace.
    kHammerToFirstFlip,
    /// Step the hammer until first flip or `duration` elapses, advancing
    /// `step_gap` of think time between iterations (spread-out attacks).
    kHammerUntilFlipOrDeadline,
    /// Warm the hammer up for 8 iterations, then measure per-iteration
    /// cache/DRAM/latency behaviour over 20000 (Figure 1b cost model).
    kPatternMeasure,
    /// Interleave all tenants round-robin until the FIRST workload
    /// completes `ops` operations (fixed-work slowdown under live attack
    /// pressure — e.g. tracker-thrash refresh storms).
    kInterleaveUntilOps,
};

/// Number of RunMode enumerators (kInterleaveUntilOps stays last).
inline constexpr std::size_t kRunModeCount =
    static_cast<std::size_t>(RunMode::kInterleaveUntilOps) + 1;

/** Run-phase parameters (interpreted per RunMode). */
struct RunSpec {
    RunMode mode = RunMode::kInterleaveFor;
    Tick duration = 0;
    std::uint64_t ops = 0;
    Tick step_gap = 0;
};

/**
 * Measurements the scenario emits, in emission order. Each kind maps to
 * a fixed counter/value name in the anvil-sweep-v1 JSON; specs list
 * exactly the outputs (and order) their table consumes. Outputs tagged
 * with a run mode (or "pattern", kPatternMeasure) are measured by that
 * mode only, and validate() rejects them under any other.
 */
enum class Output {
    kFlips,                   ///< counter "flips": DRAM bit flips
    kDetections,              ///< counter "detections"
    kSelectiveRefreshes,      ///< counter "selective_refreshes"
    kAttackMs,                ///< value "attack_ms": run-phase duration
    /// value "detect_ms": time from the attack's start to the first
    /// detection at or after it (none when there is no such detection)
    kDetectMs,
    kFpPerSec,                ///< value "fp_per_sec": boost-corrected FP rate
    kBoost,                   ///< value "boost": thrash-rate boost applied
    kFalsePositiveRefreshes,  ///< counter "false_positive_refreshes"
    kRunMs,                   ///< value "run_ms": run-phase duration
    /// counter "ops": the per-workload quota of kWorkloadOps or
    /// kInterleaveUntilOps (no other mode runs a fixed quota).
    kOps,
    kFlipped,                 ///< counter "flipped" (kHammerToFirstFlip)
    kAggressorAccesses,       ///< counter "aggressor_accesses" (ditto)
    kFlipMs,                  ///< value "flip_ms": first flip (ditto)
    kMissesPerIter,           ///< value "misses_per_iter" (pattern)
    kAccessesPerIter,         ///< value "accesses_per_iter" (pattern)
    kNsPerIter,               ///< value "ns_per_iter" (pattern)
    kCyclesPerIter,           ///< value "cycles_per_iter" (pattern)
    kHammersPerRefresh,       ///< value "hammers_per_refresh" (pattern)
    kAggressorActShare,       ///< value "aggressor_act_share" (pattern)
    kAnvilStats,              ///< block "anvil": detector stats (if any)
    kDramStats,               ///< block "dram": DRAM stats
    kMitigationRefreshes,     ///< counter "mitigation_refreshes"
    kMitigationEvictions,     ///< counter "mitigation_evictions"
    /// counter "ops/<tenant>" per workload tenant: run-phase operations
    /// (the fixed-time throughput each victim achieved).
    kTenantOps,
    /// counter "detections/<tenant>" per tenant, in tenant order, plus
    /// "detections/unattributed" for detections no tenant owns.
    kTenantDetections,
    /// counter "cross_tenant_fp" (detections blamed on a benign tenant)
    /// plus "cross_tenant_fp/<tenant>" per workload tenant.
    kCrossTenantFp,
};

/// Number of Output enumerators (kCrossTenantFp stays last).
inline constexpr std::size_t kOutputCount =
    static_cast<std::size_t>(Output::kCrossTenantFp) + 1;

/** One fully declarative experiment cell. */
struct ScenarioSpec {
    /// Runner scenario name — the row label and the trial-seed salt.
    std::string name;

    /// The machine. vm_seed is replaced by the trial's "vm" sub-stream
    /// unless seed_vm_from_trial is false (legacy fixed-layout cells).
    mem::SystemConfig system;
    bool seed_vm_from_trial = true;

    /// Registry name of the hardware mitigation tracker attached right
    /// after machine construction (mitigations::mitigation_registry());
    /// empty runs without one. The tracker's RNG (if any) is seeded from
    /// the trial's "mitigation" sub-stream.
    std::string mitigation;

    /// Clock advance before the detector loads (layout/refresh-phase
    /// decorrelation across trials).
    PhaseJitter pre_detector;

    /// Start the detector before constructing workloads. Anvil::start()
    /// charges its first stage-1 check to the simulated clock, so the
    /// construction order shifts the workloads' thrash-phase schedule
    /// relative to the detector windows; scenarios pin whichever order
    /// their measurement was calibrated against.
    bool detector_before_workloads = false;

    /// The detector; nullopt runs unprotected.
    std::optional<detector::AnvilConfig> detector;
    GroundTruth ground_truth = GroundTruth::kAttackLifetime;

    /// Free-run advance between detector start and attack start, so the
    /// attack begins at an arbitrary (seed-chosen) window phase.
    PhaseJitter pre_attack;

    /// Every process of the scenario. Schedule and attribution order is
    /// declaration order. Process creation follows the build phases
    /// instead (builder.hh): attacker spaces map and scan right after
    /// machine construction, workload arenas map at the
    /// workload-construction point, and attack targets are picked after
    /// the free-run window, like a process that just started. Pids
    /// therefore follow build order, not schedule order.
    std::vector<TenantSpec> tenants;

    RunSpec run;
    std::vector<Output> outputs;

    /// When nonzero this cell always runs exactly this many trials,
    /// ignoring --trials (e.g. fig4's single-shot future-attack cells).
    std::uint64_t fixed_trials = 0;
};

/** A whole paper table/figure: named, ordered cells + report hooks. */
struct SweepSpec {
    /// Registry key and JSON "sweep" name, e.g. "table3_detection".
    std::string name;
    /// Cells in execution (and JSON) order.
    std::vector<ScenarioSpec> cells;
    /// Default trials per cell when --trials is not given.
    std::uint64_t default_trials = 1;
    /// Computes derived aggregates (set_derived) after the sweep runs,
    /// on every driver's path that builds a report, so they all emit
    /// identical JSON. Cells absent from the sink (a --replay-trial
    /// run) are skipped, never created.
    std::function<void(runner::ResultSink &)> finalize;
    /// Prints the paper's table(s) from a finalized whole-plan report.
    /// Reads derived aggregates back from the sink rather than
    /// recomputing them, and prints "-" for cells the sink lacks.
    std::function<void(const runner::ResultSink &, std::ostream &)> render;
};

}  // namespace anvil::scenario

#endif  // ANVIL_SCENARIO_SPEC_HH
