/**
 * @file
 * Determinism regression net for the simulator.
 *
 * Two back-to-back serial runs of the double-sided attack + ANVIL
 * scenario must produce identical Detection sequences and AnvilStats.
 * This guards the contracts parallel sweeps rely on: a clock whose one
 * alarm rings at its deadline (src/mem/clock.hh), the explicit seeding of every random stream, and the absence of any
 * global mutable state shared between simulated machines.
 */
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "anvil/anvil.hh"
#include "attack/hammer.hh"
#include "attack/memory_layout.hh"
#include "common/units.hh"
#include "mem/memory_system.hh"
#include "mitigations/counter_trr.hh"
#include "mitigations/registry.hh"
#include "pmu/pmu.hh"
#include "scenario/scheduler.hh"
#include "workload/workload.hh"

namespace anvil {
namespace {

/** Everything observable from one scenario run. */
struct RunRecord {
    std::vector<detector::Detection> detections;
    detector::AnvilStats stats;
    dram::DramSystem::Stats dram;
    std::uint64_t flips = 0;
    Tick end_time = 0;
};

/**
 * The Table-3 double-sided CLFLUSH attack under ANVIL-baseline with one
 * background workload, entirely determined by @p seed.
 */
RunRecord
run_scenario(std::uint64_t seed)
{
    mem::SystemConfig config;
    config.vm_seed = seed;
    mem::MemorySystem machine(config);
    pmu::Pmu pmu(machine);

    mem::AddressSpace &attacker = machine.create_process();
    const std::uint64_t buffer_bytes = 16ULL << 20;
    const Addr buffer = attacker.mmap(buffer_bytes);
    attack::MemoryLayout layout(attacker, machine.dram().address_map(),
                                machine.hierarchy());
    layout.scan(buffer, buffer_bytes);
    const auto targets = layout.find_double_sided_targets(4);
    if (targets.empty())
        throw std::runtime_error("no double-sided target");

    workload::SpecProfile profile = workload::spec_profile("mcf");
    profile.seed = seed ^ 0x9e3779b97f4a7c15ULL;
    workload::Workload background(machine, profile);

    detector::Anvil anvil(machine, pmu,
                          detector::AnvilConfig::baseline());
    anvil.set_ground_truth([] { return true; });
    anvil.start();

    machine.advance(ms(1));
    attack::ClflushDoubleSided hammer(machine, attacker.pid(),
                                      targets.front());
    scenario::TenantScheduler sched(machine);
    sched.add({&hammer});
    sched.add({&background});
    sched.run_until(machine.now() + ms(32));

    RunRecord record;
    record.detections = anvil.detections();
    record.stats = anvil.stats();
    record.dram = machine.dram().stats();
    record.flips = machine.dram().flips().size();
    record.end_time = machine.now();
    return record;
}

void
expect_identical(const RunRecord &a, const RunRecord &b)
{
    // Detection sequences: same length, and every field of every
    // detection (including the aggressors' identities and order) equal.
    ASSERT_EQ(a.detections.size(), b.detections.size());
    for (std::size_t i = 0; i < a.detections.size(); ++i) {
        const detector::Detection &da = a.detections[i];
        const detector::Detection &db = b.detections[i];
        EXPECT_EQ(da.time, db.time) << "detection " << i;
        EXPECT_EQ(da.refreshes_performed, db.refreshes_performed)
            << "detection " << i;
        EXPECT_EQ(da.ground_truth_attack, db.ground_truth_attack)
            << "detection " << i;
        ASSERT_EQ(da.aggressors.size(), db.aggressors.size())
            << "detection " << i;
        for (std::size_t j = 0; j < da.aggressors.size(); ++j) {
            EXPECT_EQ(da.aggressors[j].flat_bank,
                      db.aggressors[j].flat_bank);
            EXPECT_EQ(da.aggressors[j].row, db.aggressors[j].row);
            EXPECT_EQ(da.aggressors[j].samples,
                      db.aggressors[j].samples);
            EXPECT_DOUBLE_EQ(da.aggressors[j].estimated_accesses,
                             db.aggressors[j].estimated_accesses);
        }
    }

    // AnvilStats, field by field.
    EXPECT_EQ(a.stats.stage1_windows, b.stats.stage1_windows);
    EXPECT_EQ(a.stats.stage1_triggers, b.stats.stage1_triggers);
    EXPECT_EQ(a.stats.stage2_windows, b.stats.stage2_windows);
    EXPECT_EQ(a.stats.detections, b.stats.detections);
    EXPECT_EQ(a.stats.selective_refreshes, b.stats.selective_refreshes);
    EXPECT_EQ(a.stats.false_positive_detections,
              b.stats.false_positive_detections);
    EXPECT_EQ(a.stats.false_positive_refreshes,
              b.stats.false_positive_refreshes);
    EXPECT_EQ(a.stats.overhead, b.stats.overhead);

    // The machine as a whole advanced identically.
    EXPECT_EQ(a.dram.accesses, b.dram.accesses);
    EXPECT_EQ(a.dram.row_hits, b.dram.row_hits);
    EXPECT_EQ(a.dram.row_misses, b.dram.row_misses);
    EXPECT_EQ(a.dram.selective_refreshes, b.dram.selective_refreshes);
    EXPECT_EQ(a.dram.refresh_stall, b.dram.refresh_stall);
    EXPECT_EQ(a.flips, b.flips);
    EXPECT_EQ(a.end_time, b.end_time);
}

TEST(Determinism, BackToBackRunsAreIdentical)
{
    const RunRecord first = run_scenario(0x5eed);
    const RunRecord second = run_scenario(0x5eed);
    // The scenario must be non-trivial for the comparison to mean
    // anything: ANVIL detected the attack at least once.
    ASSERT_GE(first.stats.detections, 1u);
    expect_identical(first, second);
}

TEST(Determinism, DifferentSeedsDiverge)
{
    // Conversely, the seed must actually steer the run; otherwise the
    // test above would pass vacuously on a seed-blind simulator.
    const RunRecord a = run_scenario(0x5eed);
    const RunRecord b = run_scenario(0xbeef);
    EXPECT_NE(a.dram.accesses, b.dram.accesses);
}

/** Everything observable from one tracked (mitigation-attached) run. */
struct TrackedRecord {
    mitigations::MitigationStats stats;
    dram::DramSystem::Stats dram;
    std::uint64_t flips = 0;
    Tick end_time = 0;
    /// End-of-run counter values of the two aggressor rows: retains the
    /// sampler's pickup lag even when refresh counts are identical.
    std::uint64_t low_counter = 0;
    std::uint64_t high_counter = 0;
};

/**
 * Double-sided CLFLUSH against the next-generation module with the
 * sampler-based counter-table TRR attached. The tracker's RNG sees only
 * @p mitigation_seed — the contract behind the per-trial "mitigation"
 * sub-stream the scenario layer hands to the registry factory.
 */
TrackedRecord
run_tracked(std::uint64_t vm_seed, std::uint64_t mitigation_seed)
{
    mem::SystemConfig config;
    config.vm_seed = vm_seed;
    config.dram.flip_threshold = 200000;
    config.dram.second_neighbor_weight = 0.5;
    mem::MemorySystem machine(config);
    const auto tracker =
        mitigations::mitigation_registry().at("ctrr-sampled").make(
            machine.dram(), mitigation_seed);

    mem::AddressSpace &attacker = machine.create_process();
    const std::uint64_t buffer_bytes = 16ULL << 20;
    const Addr buffer = attacker.mmap(buffer_bytes);
    attack::MemoryLayout layout(attacker, machine.dram().address_map(),
                                machine.hierarchy());
    layout.scan(buffer, buffer_bytes);
    const auto targets = layout.find_double_sided_targets(4);
    if (targets.empty())
        throw std::runtime_error("no double-sided target");

    const attack::DoubleSidedTarget &target = targets.front();
    attack::ClflushDoubleSided hammer(machine, attacker.pid(), target);
    hammer.run(ms(24));

    TrackedRecord record;
    record.stats = tracker->stats();
    const auto *ctrr =
        dynamic_cast<const mitigations::CounterTrr *>(tracker.get());
    if (ctrr != nullptr) {
        record.low_counter =
            ctrr->counter_of(target.flat_bank, target.victim_row - 1);
        record.high_counter =
            ctrr->counter_of(target.flat_bank, target.victim_row + 1);
    }
    record.dram = machine.dram().stats();
    record.flips = machine.dram().flips().size();
    record.end_time = machine.now();
    return record;
}

TEST(Determinism, TrackedRunsAreReproducible)
{
    const TrackedRecord a = run_tracked(0x5eed, 7);
    const TrackedRecord b = run_tracked(0x5eed, 7);
    ASSERT_GT(a.stats.activations_observed, 0u);
    EXPECT_EQ(a.stats.activations_observed, b.stats.activations_observed);
    EXPECT_EQ(a.stats.neighbor_refreshes, b.stats.neighbor_refreshes);
    EXPECT_EQ(a.stats.table_evictions, b.stats.table_evictions);
    EXPECT_EQ(a.stats.table_peak_entries, b.stats.table_peak_entries);
    EXPECT_EQ(a.dram.accesses, b.dram.accesses);
    EXPECT_EQ(a.dram.row_hits, b.dram.row_hits);
    EXPECT_EQ(a.dram.row_misses, b.dram.row_misses);
    EXPECT_EQ(a.low_counter, b.low_counter);
    EXPECT_EQ(a.high_counter, b.high_counter);
    EXPECT_EQ(a.flips, b.flips);
    EXPECT_EQ(a.end_time, b.end_time);
}

TEST(Determinism, MitigationSeedSteersTheSampler)
{
    // The sampler's coin stream must come from the mitigation seed, not
    // from any shared/global source. A different seed shifts when the
    // aggressors earn their counters; the total refresh count is
    // quantized by MAC crossings and may coincide between seeds, but the
    // pickup lag survives in the aggressors' end-of-run counter values.
    // Scan a few seeds so one coincidental lag collision can't pass a
    // seed-blind sampler off as healthy.
    const TrackedRecord a = run_tracked(0x5eed, 7);
    bool diverged = false;
    for (std::uint64_t seed = 8; seed <= 11 && !diverged; ++seed) {
        const TrackedRecord c = run_tracked(0x5eed, seed);
        diverged = a.low_counter != c.low_counter ||
                   a.high_counter != c.high_counter ||
                   a.stats.neighbor_refreshes != c.stats.neighbor_refreshes;
    }
    EXPECT_TRUE(diverged);
}

}  // namespace
}  // namespace anvil
