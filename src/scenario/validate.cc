#include "scenario/validate.hh"

#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/bits.hh"
#include "common/error.hh"
#include "common/text.hh"
#include "dram/disturbance.hh"
#include "mem/virtual_memory.hh"
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

std::string
known_profiles()
{
    std::ostringstream os;
    bool first = true;
    for (const workload::SpecProfile &p : workload::spec2006_int()) {
        os << (first ? "" : ", ") << p.name;
        first = false;
    }
    return os.str();
}

bool
needs_attack(RunMode mode)
{
    switch (mode) {
      case RunMode::kHammerToFirstFlip:
      case RunMode::kHammerUntilFlipOrDeadline:
      case RunMode::kPatternMeasure:
          return true;
      case RunMode::kInterleaveFor:
      case RunMode::kWorkloadOps:
      case RunMode::kInterleaveUntilOps:
          return false;
    }
    return false;
}

bool
needs_detector(Output output)
{
    switch (output) {
      case Output::kDetections:
      case Output::kSelectiveRefreshes:
      case Output::kDetectMs:
      case Output::kFpPerSec:
      case Output::kFalsePositiveRefreshes:
      case Output::kTenantDetections:
      case Output::kCrossTenantFp:
          return true;
      default:
          return false;
    }
}

bool
needs_attacker(Output output)
{
    switch (output) {
      case Output::kFlips:
      case Output::kAttackMs:
          return true;
      default:
          return false;
    }
}

/**
 * False when @p mode never measures @p output: emit() would write the
 * output's zero-initialized field, a silently wrong table entry.
 */
bool
mode_measures(RunMode mode, Output output)
{
    switch (output) {
      case Output::kFlipped:
      case Output::kAggressorAccesses:
      case Output::kFlipMs:
          return mode == RunMode::kHammerToFirstFlip;
      case Output::kMissesPerIter:
      case Output::kAccessesPerIter:
      case Output::kNsPerIter:
      case Output::kCyclesPerIter:
      case Output::kHammersPerRefresh:
      case Output::kAggressorActShare:
          return mode == RunMode::kPatternMeasure;
      case Output::kOps:
          return mode == RunMode::kWorkloadOps ||
                 mode == RunMode::kInterleaveUntilOps;
      default:
          return true;
    }
}

bool
needs_mitigation(Output output)
{
    switch (output) {
      case Output::kMitigationRefreshes:
      case Output::kMitigationEvictions:
          return true;
      default:
          return false;
    }
}

}  // namespace

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

    const std::vector<std::string> labels = tenant_labels(spec);
    bool has_attack = false;
    std::size_t workload_tenants = 0;
    std::uint64_t buffer_total = 0;
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
        if (t.workload) {
            ++workload_tenants;
            try {
                (void)workload::spec_profile(t.workload->profile);
            } catch (const std::out_of_range &) {
                throw cell_error(spec, "unknown workload profile")
                    .with("tenant", labels[i])
                    .with("profile", t.workload->profile)
                    .with("known", known_profiles());
            }
            continue;
        }
        has_attack = true;
        const std::uint64_t bytes = t.attack->buffer_bytes;
        if (bytes == 0 || !is_pow2(bytes)) {
            throw cell_error(spec,
                             "attack buffer_bytes must be a nonzero power "
                             "of two — the pagemap scan walks the buffer "
                             "in pow2 strides")
                .with("tenant", labels[i])
                .with("buffer_bytes", bytes);
        }
        if (bytes < mem::kHugeBytes) {
            throw cell_error(spec,
                             "attack buffer_bytes is below one huge page — "
                             "the attacker maps 2 MB THP frames, so "
                             "smaller buffers cannot be placed")
                .with("tenant", labels[i])
                .with("buffer_bytes", bytes)
                .with("huge_page_bytes", mem::kHugeBytes);
        }
        buffer_total += bytes;
    }
    // The huge-page pool is the upper half of physical memory; an
    // attacker set that outgrows it would fail mid-mmap with an obscure
    // allocator error, so reject it here with the actual budget.
    const std::uint64_t huge_pool = dram.capacity_bytes() / 2;
    if (buffer_total > huge_pool) {
        throw cell_error(spec,
                         "attacker buffers exceed the huge-page pool "
                         "(half of physical memory)")
            .with("buffer_total", buffer_total)
            .with("huge_pool_bytes", huge_pool);
    }

    if (needs_attack(spec.run.mode) && !has_attack) {
        throw cell_error(spec,
                         "this run mode drives a hammer kernel but the "
                         "scenario declares no attacks — add an AttackSpec "
                         "or switch to an interleave/workload run mode");
    }
    if (spec.run.mode == RunMode::kPatternMeasure &&
        spec.run.iterations == 0) {
        throw cell_error(spec,
                         "run.iterations is zero — the pattern cost model "
                         "divides per-iteration deltas by it");
    }
    if (spec.run.mode == RunMode::kInterleaveUntilOps &&
        workload_tenants == 0) {
        throw cell_error(spec,
                         "kInterleaveUntilOps runs until the first "
                         "workload finishes its quota, but the scenario "
                         "declares no workloads");
    }
    // A quota or a window that rounds to zero runs nothing and would
    // report zeros, or rates over zero ticks, as measurements.
    if (spec.run.mode == RunMode::kWorkloadOps ||
        spec.run.mode == RunMode::kInterleaveUntilOps)
        require_nonzero(spec, "run.ops", spec.run.ops);
    if (spec.run.mode == RunMode::kInterleaveFor)
        require_nonzero(spec, "run.duration", spec.run.duration);

    if (!spec.mitigation.empty() &&
        mitigations::mitigation_registry().find(spec.mitigation) ==
            nullptr) {
        std::vector<std::string> names;
        for (const mitigations::MitigationEntry &entry :
             mitigations::mitigation_registry().all())
            names.push_back(entry.name);
        Error error = cell_error(spec, "unknown mitigation tracker")
                          .with("mitigation", spec.mitigation)
                          .with("known", mitigations::mitigation_registry()
                                             .known_names());
        if (const auto near = nearest_name(spec.mitigation, names))
            error.with("did_you_mean", *near);
        throw error;
    }

    for (std::size_t i = 0; i < spec.outputs.size(); ++i) {
        const Output output = spec.outputs[i];
        if (needs_detector(output) && !spec.detector) {
            throw cell_error(spec,
                             "an output reads detector statistics but the "
                             "scenario runs unprotected — configure "
                             "`detector` or drop the output");
        }
        if (needs_attacker(output) && !has_attack) {
            throw cell_error(spec,
                             "an output reads attack results but the "
                             "scenario declares no attacks");
        }
        if (!mode_measures(spec.run.mode, output)) {
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
        if (output == Output::kTenantOps && workload_tenants == 0) {
            throw cell_error(spec,
                             "kTenantOps reports per-tenant workload "
                             "progress but no tenant carries a workload");
        }
        if (needs_mitigation(output) && spec.mitigation.empty()) {
            throw cell_error(spec,
                             "an output reads mitigation-tracker "
                             "statistics but the scenario configures no "
                             "mitigation — set `mitigation` to a registry "
                             "name or drop the output");
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
