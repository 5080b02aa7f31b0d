/**
 * @file
 * Edge-case and state-machine tests that go beyond the per-module happy
 * paths: detector stage transitions under adversarial timing, inclusive
 * back-invalidation specifics, eviction-set failure modes, disturbance
 * boundary rows, and sampling-mode selection.
 */
#include <gtest/gtest.h>

#include "anvil/anvil.hh"
#include "attack/hammer.hh"
#include "attack/memory_layout.hh"
#include "cache/hierarchy.hh"
#include "common/units.hh"
#include "mem/memory_system.hh"
#include "mitigations/hardware.hh"
#include "pmu/pmu.hh"
#include "workload/workload.hh"

namespace anvil {
namespace {

// ---------------------------------------------------------------------------
// Detector state machine corners
// ---------------------------------------------------------------------------

class DetectorDetail : public ::testing::Test
{
  protected:
    DetectorDetail()
        : machine(mem::SystemConfig{}),
          pmu(machine.pmu()),
          proc(&machine.create_process()),
          arena(proc->mmap(32ULL << 20))
    {
    }

    /** Issues @p n LLC-missing loads (streaming). */
    void
    misses(std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n; ++i) {
            stream += cache::kLineBytes;
            if (stream >= (32ULL << 20))
                stream = 0;
            machine.access(proc->pid(), arena + stream, AccessType::kLoad);
        }
    }

    mem::MemorySystem machine;
    pmu::Pmu &pmu;
    mem::AddressSpace *proc;
    Addr arena;
    std::uint64_t stream = 0;
};

TEST_F(DetectorDetail, Stage1EscalatesOnlyWhenThresholdBeatsTimer)
{
    detector::AnvilConfig config = detector::AnvilConfig::baseline();
    detector::Anvil anvil(machine, pmu, config);
    anvil.start();

    // 19 999 misses in under 6 ms: below threshold — no escalation.
    misses(config.llc_miss_threshold - 1);
    machine.advance(ms(6));
    EXPECT_EQ(anvil.stats().stage1_triggers, 0u);

    // One more burst that crosses it inside one window.
    misses(config.llc_miss_threshold + 10);
    EXPECT_EQ(anvil.stats().stage1_triggers, 1u);
}

TEST_F(DetectorDetail, SlowTrickleNeverEscalates)
{
    // The same total misses spread across many windows never trigger:
    // the counter re-arms each window.
    detector::AnvilConfig config = detector::AnvilConfig::baseline();
    detector::Anvil anvil(machine, pmu, config);
    anvil.start();
    for (int window = 0; window < 20; ++window) {
        misses(config.llc_miss_threshold / 2);
        machine.advance(ms(6));
    }
    EXPECT_EQ(anvil.stats().stage1_triggers, 0u);
    EXPECT_GE(anvil.stats().stage1_windows, 20u);
}

TEST_F(DetectorDetail, StopInsideStage2CancelsSampling)
{
    detector::Anvil anvil(machine, pmu, detector::AnvilConfig::baseline());
    anvil.start();
    misses(25000);  // escalate into Stage 2
    EXPECT_EQ(anvil.stats().stage1_triggers, 1u);
    anvil.stop();
    EXPECT_FALSE(pmu.sampling_enabled());
    // No stage-2 completion events fire later.
    const auto windows = anvil.stats().stage2_windows;
    machine.advance(ms(50));
    EXPECT_EQ(anvil.stats().stage2_windows, windows);
}

TEST_F(DetectorDetail, RestartAfterStopResumesCleanly)
{
    detector::Anvil anvil(machine, pmu, detector::AnvilConfig::baseline());
    anvil.start();
    misses(25000);
    anvil.stop();
    anvil.start();
    misses(25000);
    machine.advance(ms(10));
    EXPECT_GE(anvil.stats().stage1_triggers, 2u);
}

TEST_F(DetectorDetail, SamplesBothWhenLoadsAndStoresMix)
{
    // 50/50 load/store misses => both samplers enabled (between the 10 %
    // and 90 % cutoffs), and the sample stream contains both kinds.
    detector::Anvil anvil(machine, pmu, detector::AnvilConfig::baseline());
    anvil.start();
    bool store = false;
    for (int i = 0; i < 50000; ++i) {
        stream += cache::kLineBytes;
        machine.access(proc->pid(), arena + stream,
                       store ? AccessType::kStore : AccessType::kLoad);
        store = !store;
    }
    EXPECT_GE(anvil.stats().stage2_windows, 1u);
}

TEST_F(DetectorDetail, OverheadScalesWithStage2Activity)
{
    // A quiet machine charges only Stage-1 bookkeeping; a saturating one
    // charges sampling + analysis every cycle.
    detector::Anvil quiet_anvil(machine, pmu,
                                detector::AnvilConfig::baseline());
    quiet_anvil.start();
    machine.advance(ms(120));
    const Tick quiet = quiet_anvil.stats().overhead;
    quiet_anvil.stop();

    detector::Anvil busy_anvil(machine, pmu,
                               detector::AnvilConfig::baseline());
    busy_anvil.start();
    const Tick deadline = machine.now() + ms(120);
    while (machine.now() < deadline)
        misses(1000);
    EXPECT_GT(busy_anvil.stats().overhead, 5 * quiet);
}

// ---------------------------------------------------------------------------
// Inclusive hierarchy specifics
// ---------------------------------------------------------------------------

TEST(HierarchyDetail, LlcEvictionBackInvalidatesCoreCaches)
{
    cache::HierarchyConfig config;
    config.l1_sets = 8;
    config.l2_sets = 32;
    config.llc_slices = 1;
    config.llc_sets_per_slice = 16;
    config.llc_ways = 2;  // tiny LLC so evictions are easy to force
    cache::CacheHierarchy h(config);

    const Addr a = 0x10000;
    h.access(a, AccessType::kLoad);
    ASSERT_TRUE(h.l1().contains(a));

    // Fill a's LLC set with conflicting lines until a is evicted.
    const std::uint32_t target_set = h.llc_set(a);
    Addr conflict = 0x200000;
    int filled = 0;
    while (filled < 4) {
        if (h.llc_set(conflict) == target_set) {
            h.access(conflict, AccessType::kLoad);
            ++filled;
        }
        conflict += cache::kLineBytes;
    }
    EXPECT_FALSE(h.llc(0).contains(a));
    // Inclusion: the back-invalidation removed it from L1/L2 too.
    EXPECT_FALSE(h.l1().contains(a));
    EXPECT_FALSE(h.l2().contains(a));
}

// ---------------------------------------------------------------------------
// Disturbance boundary rows
// ---------------------------------------------------------------------------

TEST(DisturbanceDetail, EdgeRowsHaveOneNeighborOnly)
{
    dram::DramConfig config;
    config.ranks_per_channel = 1;
    config.banks_per_rank = 1;
    config.rows_per_bank = 64;
    config.refresh_slots = 64;
    config.variation_spread = 0.0;
    dram::RefreshSchedule schedule(config);
    std::vector<dram::FlipEvent> flips;
    dram::DisturbanceModel model(config, 0, schedule, flips);

    Tick t = 1;
    for (std::uint64_t i = 0; i <= config.flip_threshold; ++i)
        model.on_activate(0, t++);  // row 0: only row 1 exists below it
    ASSERT_EQ(flips.size(), 1u);
    EXPECT_EQ(flips[0].row, 1u);

    flips.clear();
    for (std::uint64_t i = 0; i <= config.flip_threshold; ++i)
        model.on_activate(63, t++);  // last row: only row 62
    ASSERT_EQ(flips.size(), 1u);
    EXPECT_EQ(flips[0].row, 62u);
}

// ---------------------------------------------------------------------------
// Attack library failure modes
// ---------------------------------------------------------------------------

TEST(AttackDetail, EvictionSetFailsCleanlyOnTinyBuffers)
{
    mem::MemorySystem machine{mem::SystemConfig{}};
    mem::AddressSpace &proc = machine.create_process();
    const Addr tiny = proc.mmap(16 * 4096);  // far too small
    attack::MemoryLayout layout(proc, machine.dram().address_map(),
                                machine.hierarchy());
    layout.scan(tiny, 16 * 4096);
    EXPECT_THROW(layout.build_eviction_set(tiny, 12), std::runtime_error);
}

TEST(AttackDetail, NoTargetsInTinyScatteredBuffer)
{
    mem::MemorySystem machine{mem::SystemConfig{}};
    mem::AddressSpace &proc = machine.create_process();
    // Below the THP threshold: pages scatter, no adjacent-row pairs.
    const Addr tiny = proc.mmap(64 * 4096);
    attack::MemoryLayout layout(proc, machine.dram().address_map(),
                                machine.hierarchy());
    layout.scan(tiny, 64 * 4096);
    EXPECT_TRUE(layout.find_double_sided_targets(8).empty());
}

TEST(AttackDetail, HammerRespectsDeadlineWithoutFlipping)
{
    mem::MemorySystem machine{mem::SystemConfig{}};
    mem::AddressSpace &proc = machine.create_process();
    const Addr buffer = proc.mmap(64ULL << 20);
    attack::MemoryLayout layout(proc, machine.dram().address_map(),
                                machine.hierarchy());
    layout.scan(buffer, 64ULL << 20);
    const auto targets = layout.find_single_sided_targets(4, 64);
    ASSERT_FALSE(targets.empty());
    attack::ClflushSingleSided hammer(machine, proc.pid(),
                                      targets.front());
    // 5 ms is nowhere near enough for a single-sided flip.
    const auto result = hammer.run(ms(5));
    EXPECT_FALSE(result.flipped);
    EXPECT_NEAR(to_ms(result.duration), 5.0, 0.2);
    EXPECT_GT(result.iterations, 10000u);
}

// ---------------------------------------------------------------------------
// ANVIL + hardware mitigation composition
// ---------------------------------------------------------------------------

TEST(Composition, AnvilAndTrrCoexist)
{
    // Defense in depth: a machine with both TRR and ANVIL still stops the
    // attack and neither interferes with the other.
    mem::MemorySystem machine{mem::SystemConfig{}};
    mitigations::Trr trr(machine.dram(), 32000);
    detector::Anvil anvil(machine, machine.pmu(),
                          detector::AnvilConfig::baseline());
    anvil.start();

    mem::AddressSpace &attacker = machine.create_process();
    const Addr buffer = attacker.mmap(64ULL << 20);
    attack::MemoryLayout layout(attacker, machine.dram().address_map(),
                                machine.hierarchy());
    layout.scan(buffer, 64ULL << 20);
    const auto targets = layout.find_double_sided_targets(4);
    ASSERT_FALSE(targets.empty());
    attack::ClflushDoubleSided hammer(machine, attacker.pid(),
                                      targets.front());
    EXPECT_FALSE(hammer.run(ms(128)).flipped);
    EXPECT_TRUE(machine.dram().flips().empty());
}

}  // namespace
}  // namespace anvil
