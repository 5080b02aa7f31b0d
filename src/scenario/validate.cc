#include "scenario/validate.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/bits.hh"
#include "common/error.hh"
#include "dram/disturbance.hh"
#include "dram/dram_system.hh"
#include "mitigations/registry.hh"
#include "scenario/scheduler.hh"
#include "workload/profile.hh"

namespace anvil::scenario {
namespace {

/** Error with the scenario name already attached. */
Error
cell_error(const ScenarioSpec &spec, const std::string &message)
{
    return Error(message).with("scenario", spec.name);
}

void
require_pow2(const ScenarioSpec &spec, const char *field, std::uint64_t v)
{
    if (v == 0 || !is_pow2(v)) {
        throw cell_error(spec,
                         std::string(field) +
                             " must be a nonzero power of two (the set "
                             "index is taken from address bits)")
            .with("value", v);
    }
}

void
require_nonzero(const ScenarioSpec &spec, const char *field, std::uint64_t v)
{
    if (v == 0)
        throw cell_error(spec, std::string(field) + " must be nonzero");
}

void
require_nonnegative(const ScenarioSpec &spec, const char *field, double v)
{
    if (!std::isfinite(v) || v < 0.0) {
        throw cell_error(spec,
                         std::string(field) +
                             " must be finite and non-negative (a "
                             "negative coupling or spread breaks the "
                             "disturbance model's flip bounds)")
            .with("value", std::to_string(v));
    }
}

/**
 * Rejects cache geometries the tag store cannot hold; Cache and
 * CacheHierarchy only assert them, and the asserts compile out in
 * optimized builds.
 */
void
require_cache_level(const ScenarioSpec &spec, const char *field,
                    std::uint32_t ways, cache::ReplPolicy policy)
{
    require_nonzero(spec, field, ways);
    if (policy == cache::ReplPolicy::kTreePlru && !is_pow2(ways)) {
        throw cell_error(spec,
                         std::string(field) +
                             " must be a power of two under tree-plru "
                             "(the victim walk halves the way range at "
                             "each tree level)")
            .with("value", ways);
    }
    if (policy == cache::ReplPolicy::kLru && ways > 255) {
        throw cell_error(spec,
                         std::string(field) +
                             " must be at most 255 under lru (the recency "
                             "stack stores each way index in one byte)")
            .with("value", ways);
    }
    if (ways > 64) {
        throw cell_error(spec,
                         std::string(field) +
                             " must be at most 64 (each set's valid ways "
                             "and replacement bits are one 64-bit word)")
            .with("value", ways)
            .with("policy", cache::to_string(policy));
    }
}

/** A run field that must be nonzero. */
struct RunField {
    const char *name;
    std::uint64_t RunSpec::*field;
};

constexpr RunField kRunOps{"run.ops", &RunSpec::ops};
constexpr RunField kRunDuration{"run.duration", &RunSpec::duration};

constexpr unsigned
mode_bit(RunMode mode)
{
    return 1u << static_cast<unsigned>(mode);
}

constexpr unsigned kEveryMode = (1u << kRunModeCount) - 1;

/** Parts of a scenario a run mode or an output can read (bit flags). */
enum Payload : unsigned {
    kDetector = 1u << 0,
    kAttack = 1u << 1,
    kMitigation = 1u << 2,
    kWorkload = 1u << 3,
};

/**
 * What one run mode or one output needs from its scenario: the payloads
 * it reads (rejected with `missing` when one is absent), for a run mode
 * the tenants it never steps (payloads in `unstepped`, or any tenant
 * past the first under `one_tenant`; rejected with `idle`, since such a
 * tenant would be built and silently never run), a run field that must
 * be nonzero, for an output the run modes that measure it (under any
 * other, emit() would write the output's zero-initialized field, a
 * silently wrong table entry), and whether it reads the DRAM's bit
 * flips (the disturbance model runs only in cells where one does).
 */
struct Requirement {
    unsigned payloads = 0;
    const char *missing = nullptr;
    unsigned unstepped = 0;
    bool one_tenant = false;
    const char *idle = nullptr;
    const RunField *nonzero = nullptr;
    unsigned measured_by = kEveryMode;
    bool reads_flips = false;
};

template <typename Enum>
struct Row {
    Enum of;
    Requirement need;
};

template <typename Enum, std::size_t N>
constexpr bool
in_enum_order(const Row<Enum> (&rows)[N])
{
    for (std::size_t i = 0; i < N; ++i) {
        if (rows[i].of != static_cast<Enum>(i))
            return false;
    }
    return true;
}

constexpr Requirement kHammers{
    .payloads = kAttack,
    .missing = "this run mode drives a hammer kernel but the scenario "
               "declares no attacks — add an AttackSpec or switch to an "
               "interleave/workload run mode",
    .one_tenant = true,
    .idle = "this run mode steps only the first attacker — declare "
            "exactly one tenant, an attacker, or switch to an interleave "
            "run mode to run the other tenants beside it"};
// Stops at the first flip, so reads the flip log while it runs.
constexpr Requirement kHammersToFlip = [] {
    Requirement need = kHammers;
    need.reads_flips = true;
    return need;
}();

// A quota or a window that rounds to zero runs nothing and would report
// zeros, or rates over zero ticks, as measurements.
constexpr Row<RunMode> kModeRows[] = {
    {RunMode::kInterleaveFor, {.nonzero = &kRunDuration}},
    {RunMode::kWorkloadOps,
     {.payloads = kWorkload,
      .missing = "kWorkloadOps runs each workload for run.ops operations, "
                 "but the scenario declares no workloads",
      .unstepped = kAttack,
      .idle = "kWorkloadOps never steps an attacker — drop the attack "
              "tenant, or switch to kInterleaveUntilOps to run the "
              "workloads beside it",
      .nonzero = &kRunOps}},
    {RunMode::kHammerToFirstFlip, kHammersToFlip},
    {RunMode::kHammerUntilFlipOrDeadline, kHammersToFlip},
    {RunMode::kPatternMeasure, kHammers},
    {RunMode::kInterleaveUntilOps,
     {.payloads = kWorkload,
      .missing = "kInterleaveUntilOps runs until the first workload "
                 "finishes its quota, but the scenario declares no "
                 "workloads",
      .nonzero = &kRunOps}},
};
static_assert(std::size(kModeRows) == kRunModeCount &&
                  in_enum_order(kModeRows),
              "one requirement row per RunMode, in enum order");

constexpr Requirement kAnyScenario{};
constexpr Requirement kReadsDetector{
    .payloads = kDetector,
    .missing = "an output reads detector statistics but the scenario runs "
               "unprotected — configure `detector` or drop the output"};
constexpr Requirement kReadsAttack{
    .payloads = kAttack,
    .missing = "an output reads attack results but the scenario declares "
               "no attacks"};
constexpr Requirement kReadsFlipLog{.payloads = kReadsAttack.payloads,
                                    .missing = kReadsAttack.missing,
                                    .reads_flips = true};
constexpr Requirement kReadsMitigation{
    .payloads = kMitigation,
    .missing = "an output reads mitigation-tracker statistics but the "
               "scenario configures no mitigation — set `mitigation` to a "
               "registry name or drop the output"};
constexpr Requirement kFirstFlipOnly{
    .measured_by = mode_bit(RunMode::kHammerToFirstFlip)};
constexpr Requirement kPatternOnly{
    .measured_by = mode_bit(RunMode::kPatternMeasure)};

constexpr Row<Output> kOutputRows[] = {
    {Output::kFlips, kReadsFlipLog},
    {Output::kDetections, kReadsDetector},
    {Output::kSelectiveRefreshes, kReadsDetector},
    {Output::kAttackMs, kReadsAttack},
    {Output::kDetectMs, kReadsDetector},
    {Output::kFpPerSec, kReadsDetector},
    {Output::kBoost, kAnyScenario},
    {Output::kFalsePositiveRefreshes, kReadsDetector},
    {Output::kRunMs, kAnyScenario},
    {Output::kOps,
     {.measured_by = mode_bit(RunMode::kWorkloadOps) |
                     mode_bit(RunMode::kInterleaveUntilOps)}},
    {Output::kFlipped, kFirstFlipOnly},
    {Output::kAggressorAccesses, kFirstFlipOnly},
    {Output::kFlipMs, kFirstFlipOnly},
    {Output::kMissesPerIter, kPatternOnly},
    {Output::kAccessesPerIter, kPatternOnly},
    {Output::kNsPerIter, kPatternOnly},
    {Output::kCyclesPerIter, kPatternOnly},
    {Output::kHammersPerRefresh, kPatternOnly},
    {Output::kAggressorActShare, kPatternOnly},
    {Output::kAnvilStats, kAnyScenario},
    {Output::kDramStats, kAnyScenario},
    {Output::kMitigationRefreshes, kReadsMitigation},
    {Output::kMitigationEvictions, kReadsMitigation},
    {Output::kTenantOps,
     {.payloads = kWorkload,
      .missing = "kTenantOps reports per-tenant workload progress but no "
                 "tenant carries a workload"}},
    {Output::kTenantDetections, kReadsDetector},
    {Output::kCrossTenantFp, kReadsDetector},
};
static_assert(std::size(kOutputRows) == kOutputCount &&
                  in_enum_order(kOutputRows),
              "one requirement row per Output, in enum order");

/**
 * Throws when @p spec lacks a payload @p need reads (@p provided holds
 * the spec's Payload bits), declares a tenant it never steps, or leaves
 * its run field zero.
 */
void
require(const ScenarioSpec &spec, unsigned provided, const Requirement &need)
{
    if ((need.payloads & ~provided) != 0)
        throw cell_error(spec, need.missing);
    if ((need.unstepped & provided) != 0 ||
        (need.one_tenant && spec.tenants.size() > 1))
        throw cell_error(spec, need.idle);
    if (need.nonzero != nullptr)
        require_nonzero(spec, need.nonzero->name,
                        spec.run.*(need.nonzero->field));
}

}  // namespace

bool
reads_flips(const ScenarioSpec &spec)
{
    if (kModeRows[static_cast<std::size_t>(spec.run.mode)].need.reads_flips)
        return true;
    return std::any_of(spec.outputs.begin(), spec.outputs.end(),
                       [](Output output) {
                           return kOutputRows[static_cast<std::size_t>(
                                                  output)]
                               .need.reads_flips;
                       });
}

void
validate(const ScenarioSpec &spec)
{
    if (spec.name.empty())
        throw Error("scenario cell has an empty name (the name is the JSON "
                    "row label and the trial-seed salt; it is required)");

    const cache::HierarchyConfig &cache = spec.system.cache;
    require_pow2(spec, "cache.l1_sets", cache.l1_sets);
    require_pow2(spec, "cache.l2_sets", cache.l2_sets);
    require_pow2(spec, "cache.llc_sets_per_slice",
                 cache.llc_sets_per_slice);
    require_cache_level(spec, "cache.l1_ways", cache.l1_ways,
                        cache.l1_policy);
    require_cache_level(spec, "cache.l2_ways", cache.l2_ways,
                        cache.l2_policy);
    require_cache_level(spec, "cache.llc_ways", cache.llc_ways,
                        cache.llc_policy);
    if (!is_pow2(cache.llc_slices) ||
        cache.llc_slices > cache::kMaxLlcSlices) {
        throw cell_error(spec,
                         "cache.llc_slices must be a power of two no "
                         "larger than 8 (the slice hash defines three "
                         "index bits; other counts would leave slices "
                         "unused)")
            .with("value", cache.llc_slices);
    }

    const dram::DramConfig &dram = spec.system.dram;
    require_nonzero(spec, "dram.channels", dram.channels);
    require_nonzero(spec, "dram.ranks_per_channel",
                    dram.ranks_per_channel);
    require_nonzero(spec, "dram.banks_per_rank", dram.banks_per_rank);
    if (dram.rows_per_bank == 0) {
        throw cell_error(spec,
                         "dram.rows_per_bank is zero — a rowhammer "
                         "simulation needs rows to hammer");
    }
    require_pow2(spec, "dram.row_bytes", dram.row_bytes);
    require_nonzero(spec, "dram.refresh_slots", dram.refresh_slots);
    // capacity_bytes() in double: its integer products can overflow,
    // and a double compares exactly against the 2^38 limit (every
    // intermediate below 2^53 is exact; anything larger is over it).
    const double capacity = static_cast<double>(dram.channels) *
                            dram.ranks_per_channel * dram.banks_per_rank *
                            dram.rows_per_bank * dram.row_bytes;
    if (capacity > static_cast<double>(cache::kMaxPhysBytes)) {
        char bytes[32];
        std::snprintf(bytes, sizeof bytes, "%.0f", capacity);
        throw cell_error(spec,
                         "DRAM capacity exceeds 256 GiB — cache tags are "
                         "32-bit line numbers, so physical addresses "
                         "must stay below 2^38")
            .with("capacity_bytes", std::string(bytes))
            .with("max_bytes", cache::kMaxPhysBytes);
    }
    if (dram.refresh_period == 0) {
        throw cell_error(spec,
                         "dram.refresh_period is zero — every row would "
                         "be refreshed continuously and no cell could "
                         "ever flip");
    }
    if (!dram::DramSystem::refresh_fits(dram)) {
        throw cell_error(spec,
                         "dram.refresh_period / dram.refresh_slots (tREFI) "
                         "must exceed dram.t_rfc — every REF command must "
                         "end before the next one starts")
            .with("refresh_period", dram.refresh_period)
            .with("refresh_slots", dram.refresh_slots)
            .with("t_rfc", dram.t_rfc);
    }
    if (dram.flip_threshold == 0) {
        throw cell_error(spec,
                         "dram.flip_threshold is zero — every activation "
                         "would flip its neighbours immediately");
    }
    require_nonnegative(spec, "dram.double_sided_alpha",
                        dram.double_sided_alpha);
    require_nonnegative(spec, "dram.variation_spread",
                        dram.variation_spread);
    require_nonnegative(spec, "dram.second_neighbor_weight",
                        dram.second_neighbor_weight);
    if (!dram::DisturbanceModel::thresholds_fit(dram)) {
        throw cell_error(spec,
                         "dram.flip_threshold * (1 + 0.9 * "
                         "dram.variation_spread) must fit in 32 bits — "
                         "the disturbance model stores per-row "
                         "thresholds in 32 bits")
            .with("flip_threshold", dram.flip_threshold)
            .with("variation_spread",
                  std::to_string(dram.variation_spread));
    }

    // Else a window ends where it starts, arm_overflow asserts, or
    // Anvil::begin_stage2's sampling period is undefined.
    if (const auto &detector = spec.detector) {
        require_nonzero(spec, "detector.tc", detector->tc);
        require_nonzero(spec, "detector.ts", detector->ts);
        require_nonzero(spec, "detector.llc_miss_threshold",
                        detector->llc_miss_threshold);
        if (!std::isfinite(detector->samples_per_sec) ||
            detector->samples_per_sec <= 0.0) {
            throw cell_error(spec, "detector.samples_per_sec must be "
                                   "finite and positive")
                .with("value", std::to_string(detector->samples_per_sec));
        }
    }

    const std::vector<std::string> labels = tenant_labels(spec);
    std::uint64_t attackers = 0;
    bool has_workload = false;
    for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
        const TenantSpec &t = spec.tenants[i];
        if (t.attack.has_value() == t.workload.has_value()) {
            throw cell_error(spec,
                             "a tenant must carry exactly one payload — "
                             "either an attack or a workload, not both "
                             "and not neither")
                .with("tenant", labels[i]);
        }
        if (t.quantum_accesses == 0) {
            throw cell_error(spec,
                             "tenant quantum_accesses is zero — the "
                             "scheduler grants quanta in completed "
                             "simulated accesses, so every tenant needs "
                             "at least one")
                .with("tenant", labels[i]);
        }
        if (t.attack) {
            ++attackers;
            continue;
        }
        has_workload = true;
        const std::string &profile = t.workload->profile;
        if (workload::spec2006_int().find(profile) == nullptr) {
            throw workload::spec2006_int().unknown(
                cell_error(spec, "unknown workload profile")
                    .with("tenant", labels[i])
                    .with("profile", profile),
                profile);
        }
    }
    // The huge-page pool is the upper half of physical memory; an
    // attacker set that outgrows it would fail mid-mmap with an obscure
    // allocator error, so reject it here with the actual budget.
    const std::uint64_t buffer_total = attackers * kDefaultAttackBufferBytes;
    const std::uint64_t huge_pool = dram.capacity_bytes() / 2;
    if (buffer_total > huge_pool) {
        throw cell_error(spec,
                         "attacker buffers exceed the huge-page pool "
                         "(half of physical memory)")
            .with("buffer_total", buffer_total)
            .with("huge_pool_bytes", huge_pool);
    }

    const mitigations::MitigationRegistry &trackers =
        mitigations::mitigation_registry();
    if (!spec.mitigation.empty() && trackers.find(spec.mitigation) == nullptr) {
        throw trackers.unknown(cell_error(spec, "unknown mitigation tracker")
                                   .with("mitigation", spec.mitigation),
                               spec.mitigation);
    }

    const unsigned provided =
        (spec.detector ? kDetector : 0u) | (attackers != 0 ? kAttack : 0u) |
        (!spec.mitigation.empty() ? kMitigation : 0u) |
        (has_workload ? kWorkload : 0u);
    require(spec, provided,
            kModeRows[static_cast<std::size_t>(spec.run.mode)].need);
    for (std::size_t i = 0; i < spec.outputs.size(); ++i) {
        const Requirement &need =
            kOutputRows[static_cast<std::size_t>(spec.outputs[i])].need;
        require(spec, provided, need);
        if ((need.measured_by & mode_bit(spec.run.mode)) == 0) {
            throw cell_error(spec,
                             "an output is never measured by this run "
                             "mode and would emit a silent zero — "
                             "flipped/aggressor_accesses/flip_ms need "
                             "kHammerToFirstFlip, the per-iteration "
                             "pattern outputs need kPatternMeasure, and "
                             "ops needs kWorkloadOps or "
                             "kInterleaveUntilOps")
                .with("output_index", i);
        }
    }
}

void
validate(const SweepSpec &spec)
{
    if (spec.name.empty())
        throw Error("sweep has an empty name (it is the registry key and "
                    "the JSON \"sweep\" field)");
    if (spec.cells.empty()) {
        throw Error("sweep has no cells — every table/figure needs at "
                    "least one scenario")
            .with("sweep", spec.name);
    }
    if (spec.default_trials == 0) {
        throw Error("sweep default_trials is zero — cells without "
                    "fixed_trials would run no trials at all")
            .with("sweep", spec.name);
    }
    std::set<std::string> names;
    for (const ScenarioSpec &cell : spec.cells) {
        if (!names.insert(cell.name).second) {
            throw Error("duplicate cell name — JSON rows and trial seeds "
                        "are keyed by cell name, so each must be unique")
                .with("sweep", spec.name)
                .with("cell", cell.name);
        }
        try {
            validate(cell);
        } catch (Error &e) {
            throw e.with("sweep", spec.name);
        }
    }
}

}  // namespace anvil::scenario
