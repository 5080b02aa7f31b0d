/**
 * @file
 * Tests for the hardware-mitigation tracker zoo: the paper's PARA /
 * idealized-TRR baselines (Sections 1.2 / 5.2.2) plus the finite
 * counter-table TRR variants, the victim-centric RVC tracker, the
 * DAPPER-style budgeted tracker, and the name registry that exposes them
 * to scenario specs.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "attack/hammer.hh"
#include "attack/memory_layout.hh"
#include "common/units.hh"
#include "mem/memory_system.hh"
#include "mitigations/counter_trr.hh"
#include "mitigations/dapper.hh"
#include "mitigations/hardware.hh"
#include "mitigations/registry.hh"
#include "mitigations/rvc.hh"
#include "workload/workload.hh"

namespace anvil::mitigations {
namespace {

/** Machine + attacker with a weakest-victim double-sided target. */
struct Rig {
    Rig()
        : machine(mem::SystemConfig{}),
          attacker(&machine.create_process()),
          buffer(attacker->mmap(64ULL << 20)),
          layout(*attacker, machine.dram().address_map(),
                 machine.hierarchy())
    {
        layout.scan(buffer, 64ULL << 20);
        for (const auto &t : layout.find_double_sided_targets(256)) {
            if (machine.dram().disturbance(t.flat_bank).threshold_of(
                    t.victim_row) ==
                machine.dram().config().flip_threshold) {
                target = t;
                break;
            }
        }
    }

    mem::MemorySystem machine;
    mem::AddressSpace *attacker;
    Addr buffer;
    attack::MemoryLayout layout;
    std::optional<attack::DoubleSidedTarget> target;
};

TEST(Para, StopsDoubleSidedHammering)
{
    Rig rig;
    ASSERT_TRUE(rig.target.has_value());
    Para para(rig.machine.dram(), 0.001);
    attack::ClflushDoubleSided hammer(rig.machine, rig.attacker->pid(),
                                      *rig.target);
    const auto result = hammer.run(ms(192));
    EXPECT_FALSE(result.flipped);
    EXPECT_GT(para.stats().neighbor_refreshes, 0u);
}

TEST(Para, RefreshRateTracksProbability)
{
    Rig rig;
    ASSERT_TRUE(rig.target.has_value());
    Para para(rig.machine.dram(), 0.01);
    attack::ClflushDoubleSided hammer(rig.machine, rig.attacker->pid(),
                                      *rig.target);
    for (int i = 0; i < 50000; ++i)
        hammer.step();
    const double per_activation =
        static_cast<double>(para.stats().neighbor_refreshes) /
        static_cast<double>(para.stats().activations_observed);
    // Two coins of p = 0.01 per activation => ~0.02 refreshes each.
    EXPECT_NEAR(per_activation, 0.02, 0.004);
}

TEST(Para, NegligibleCostOnBenignWorkloads)
{
    // PARA adds no core time and its refresh reads are rare: a benign
    // workload's runtime is unchanged (hardware mitigations are free for
    // software — their cost is the new silicon).
    auto run = [](bool with_para) {
        mem::MemorySystem machine{mem::SystemConfig{}};
        std::unique_ptr<Para> para;
        if (with_para)
            para = std::make_unique<Para>(machine.dram(), 0.001);
        workload::Workload load(machine, workload::spec_profile("mcf"));
        load.run_ops(300000);
        return machine.now();
    };
    // The clock advance is identical: refresh reads happen "inside" the
    // controller.
    EXPECT_EQ(run(true), run(false));
}

TEST(Trr, StopsDoubleSidedHammering)
{
    Rig rig;
    ASSERT_TRUE(rig.target.has_value());
    Trr trr(rig.machine.dram(), 32000);
    attack::ClflushDoubleSided hammer(rig.machine, rig.attacker->pid(),
                                      *rig.target);
    const auto result = hammer.run(ms(192));
    EXPECT_FALSE(result.flipped);
    EXPECT_GT(trr.stats().neighbor_refreshes, 0u);
}

TEST(Trr, RefreshesEveryMacActivations)
{
    Rig rig;
    ASSERT_TRUE(rig.target.has_value());
    Trr trr(rig.machine.dram(), 10000);
    attack::ClflushDoubleSided hammer(rig.machine, rig.attacker->pid(),
                                      *rig.target);
    for (int i = 0; i < 30000; ++i)
        hammer.step();  // 30 K activations of each aggressor
    // Each aggressor crossed the MAC 3 times; 2 refreshes per crossing.
    EXPECT_NEAR(static_cast<double>(trr.stats().neighbor_refreshes), 12.0,
                4.0);
}

TEST(Trr, QuietRowsNeverTriggerRefreshes)
{
    mem::MemorySystem machine{mem::SystemConfig{}};
    Trr trr(machine.dram(), 32000);
    workload::Workload load(machine, workload::spec_profile("libquantum"));
    load.run_for(ms(50));
    // Streaming touches each row far fewer than 32 K times per window.
    EXPECT_EQ(trr.stats().neighbor_refreshes, 0u);
    EXPECT_GT(trr.stats().activations_observed, 0u);
}

TEST(Trr, MacAboveFlipThresholdIsUnsafe)
{
    // Sanity check of the threat model: a TRR with a MAC above the
    // per-side flip requirement provides no protection — exactly why
    // DDR4 modules with optional/weak TRR were still vulnerable
    // (Section 1.2: bit flips in DDR4 "have been reported").
    Rig rig;
    ASSERT_TRUE(rig.target.has_value());
    Trr trr(rig.machine.dram(), 150000);  // > 110 K per side
    const auto &schedule = rig.machine.dram().refresh_schedule();
    rig.machine.advance(
        schedule.next_refresh(rig.target->victim_row, rig.machine.now()) +
        10 - rig.machine.now());
    attack::ClflushDoubleSided hammer(rig.machine, rig.attacker->pid(),
                                      *rig.target);
    const auto result = hammer.run(ms(80));
    EXPECT_TRUE(result.flipped);
}

// ---------------------------------------------------------------------------
// Direct-drive rig for the table-based trackers: a bare DramSystem with
// uniform flip thresholds, driven by raw row accesses. Back-to-back
// accesses to one row hit the open row buffer, so activation counts are
// controlled by alternating rows.

dram::DramConfig
tiny_config()
{
    dram::DramConfig config;
    config.ranks_per_channel = 1;
    config.banks_per_rank = 2;
    config.rows_per_bank = 4096;
    config.variation_spread = 0.0;
    return config;
}

struct Device {
    explicit Device(const dram::DramConfig &config = tiny_config())
        : dram(config)
    {
    }

    /** One access to (bank, row); activates iff the row is closed. */
    void
    access(std::uint32_t bank, std::uint32_t row)
    {
        now += dram.config().t_row_miss;
        dram.access(dram.row_to_addr(bank, row), now);
    }

    /** @p n activations each of rows @p a and @p b, alternating. */
    void
    hammer_pair(std::uint32_t bank, std::uint32_t a, std::uint32_t b,
                int n)
    {
        for (int i = 0; i < n; ++i) {
            access(bank, a);
            access(bank, b);
        }
    }

    dram::DramSystem dram;
    Tick now = 0;
};

// ---------------------------------------------------------------------------
// CounterTrr: finite counter-table variants.

TEST(CounterTrr, MacTriggersNeighborRefreshAndRearms)
{
    Device dev;
    CounterTrrConfig config;
    config.mac = 10;
    CounterTrr trr(dev.dram, config, 1);
    dev.hammer_pair(0, 100, 2000, 10);
    // Both aggressors crossed the MAC exactly once; radius 1 refreshes
    // two neighbours per crossing, and the counter re-arms to zero.
    EXPECT_EQ(trr.stats().neighbor_refreshes, 4u);
    EXPECT_EQ(trr.counter_of(0, 100), 0u);
    EXPECT_EQ(trr.counter_of(0, 2000), 0u);
    // The tracker's own refresh reads are filtered by the recursion
    // guard: only the attack's activations are observed.
    EXPECT_EQ(trr.stats().activations_observed, 20u);
}

TEST(CounterTrr, RefreshRadiusTwoCoversFourNeighbors)
{
    Device dev;
    CounterTrrConfig config;
    config.mac = 10;
    config.refresh_radius = 2;
    CounterTrr trr(dev.dram, config, 1);
    dev.hammer_pair(0, 100, 2000, 10);
    EXPECT_EQ(trr.stats().neighbor_refreshes, 8u);
}

TEST(CounterTrr, EdgeRowsClampTheRefreshNeighborhood)
{
    Device dev;
    CounterTrrConfig config;
    config.mac = 10;
    CounterTrr trr(dev.dram, config, 1);
    // Row 0 has no low-side neighbour: its crossing refreshes one row,
    // the mid-bank aggressor's refreshes two.
    dev.hammer_pair(0, 0, 500, 10);
    EXPECT_EQ(trr.stats().neighbor_refreshes, 3u);
}

TEST(CounterTrr, NarrowCountersSaturateBelowTheMac)
{
    Device dev;
    CounterTrrConfig config;
    config.counter_bits = 4;  // saturates at 15
    config.mac = 100;
    CounterTrr trr(dev.dram, config, 1);
    dev.hammer_pair(0, 100, 2000, 200);
    // The mis-provisioned variant can never fire: the counter pins at
    // its ceiling and the MAC is unreachable.
    EXPECT_EQ(trr.counter_of(0, 100), 15u);
    EXPECT_EQ(trr.stats().neighbor_refreshes, 0u);
}

TEST(CounterTrr, ClearResetDropsEntriesAtWindowRollover)
{
    Device dev;
    CounterTrrConfig config;  // Reset::kClear
    CounterTrr trr(dev.dram, config, 1);
    dev.hammer_pair(0, 100, 2000, 8);
    ASSERT_EQ(trr.counter_of(0, 100), 8u);
    dev.now += dev.dram.config().refresh_period;
    dev.access(0, 100);
    // The periodic refresh sweep restored every row; the cleared table
    // restarts the count from this window's single activation.
    EXPECT_EQ(trr.counter_of(0, 100), 1u);
    EXPECT_EQ(trr.counter_of(0, 2000), 0u);
}

TEST(CounterTrr, HalveResetKeepsDecayedCountsAcrossWindows)
{
    Device dev;
    CounterTrrConfig config;
    config.reset = CounterTrrConfig::Reset::kHalve;
    CounterTrr trr(dev.dram, config, 1);
    dev.hammer_pair(0, 100, 2000, 8);
    dev.now += dev.dram.config().refresh_period;
    dev.access(0, 100);
    // 8 halved to 4, plus the activation that rolled the window.
    EXPECT_EQ(trr.counter_of(0, 100), 5u);
    EXPECT_EQ(trr.counter_of(0, 2000), 4u);
}

/** Activations driven into a 2-entry table, and the counts they leave. */
struct EvictionInput {
    std::vector<std::uint32_t> activations;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> counters;
    std::uint64_t evictions;
};

void
check_eviction(CounterTrrConfig::Evict evict, const EvictionInput &input)
{
    Device dev;
    CounterTrrConfig config;
    config.table_size = 2;
    config.evict = evict;
    CounterTrr trr(dev.dram, config, 1);
    for (const std::uint32_t row : input.activations)
        dev.access(0, row);
    for (const auto &[row, count] : input.counters)
        EXPECT_EQ(trr.counter_of(0, row), count) << "row " << row;
    EXPECT_EQ(trr.table_occupancy(0), 2u);
    EXPECT_EQ(trr.stats().table_evictions, input.evictions);
}

TEST(CounterTrr, MinCountEvictionDisplacesTheColdestEntry)
{
    // Row 100 at count 2, row 200 at count 1: the coldest is displaced.
    check_eviction(CounterTrrConfig::Evict::kMinCount,
                   {{100, 200, 100, 300}, {{100, 2}, {200, 0}, {300, 1}}, 1});
    // Equal counts: ties go oldest-first wherever the oldest entry sits
    // (300 took 100's slot, yet 200 is displaced next, not 300).
    check_eviction(
        CounterTrrConfig::Evict::kMinCount,
        {{100, 200, 300, 400}, {{100, 0}, {200, 0}, {300, 1}, {400, 1}}, 2});
}

TEST(CounterTrr, FifoEvictionDisplacesTheOldestEntry)
{
    // FIFO ignores heat: the hot row 100 is the oldest and goes first —
    // exactly the laundering weakness the matrix measures.
    check_eviction(CounterTrrConfig::Evict::kFifo,
                   {{100, 200, 100, 300}, {{100, 0}, {200, 1}, {300, 1}}, 1});
    // Age, not table position, picks the next victim.
    check_eviction(
        CounterTrrConfig::Evict::kFifo,
        {{100, 200, 300, 400}, {{100, 0}, {200, 0}, {300, 1}, {400, 1}}, 2});
}

TEST(CounterTrr, RefreshOnEvictConvertsTablePressureIntoRefreshes)
{
    Device dev;
    CounterTrrConfig config;
    config.table_size = 4;
    config.refresh_on_evict = true;
    CounterTrr trr(dev.dram, config, 1);
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint32_t r = 0; r < 64; ++r)
            dev.access(0, 100 + 3 * r);  // spaced: no shared neighbours
    }
    ASSERT_GT(trr.stats().table_evictions, 0u);
    // Every displacement refreshed the evicted row's full radius-1
    // neighbourhood: the refresh-storm channel the thrash adversary pays
    // this variant with.
    EXPECT_EQ(trr.stats().neighbor_refreshes,
              2 * trr.stats().table_evictions);
}

TEST(CounterTrr, SamplerStreamIsAPureFunctionOfTheSeed)
{
    CounterTrrConfig config;
    config.sample_probability = 0.25;
    config.table_size = 1024;

    const auto drive = [&config](std::uint64_t seed) {
        auto dev = std::make_unique<Device>();
        CounterTrr trr(dev->dram, config, seed);
        for (std::uint32_t r = 0; r < 400; ++r)
            dev->access(0, 100 + 2 * r);
        std::vector<std::uint64_t> counters;
        counters.reserve(400);
        for (std::uint32_t r = 0; r < 400; ++r)
            counters.push_back(trr.counter_of(0, 100 + 2 * r));
        return std::pair(trr.table_occupancy(0), counters);
    };

    const auto [occ_a, counts_a] = drive(42);
    const auto [occ_b, counts_b] = drive(42);
    const auto [occ_c, counts_c] = drive(43);
    // Same seed, same activation sequence: bit-identical table state —
    // the determinism contract of the trial's "mitigation" sub-stream.
    EXPECT_EQ(occ_a, occ_b);
    EXPECT_EQ(counts_a, counts_b);
    // The sampler really sampled (a strict subset was tracked), and a
    // different seed picks a different subset.
    EXPECT_GT(occ_a, 0u);
    EXPECT_LT(occ_a, 400u);
    EXPECT_NE(counts_a, counts_c);
}

// ---------------------------------------------------------------------------
// Rvc: victim-centric disturbance-credit tracker.

TEST(Rvc, ActivationCreditsVictimsAtBothDistances)
{
    Device dev;
    RvcConfig config;
    config.threshold = 1e9;
    Rvc rvc(dev.dram, config);
    dev.access(0, 100);
    EXPECT_DOUBLE_EQ(rvc.charge_of(0, 99), 1.0);
    EXPECT_DOUBLE_EQ(rvc.charge_of(0, 101), 1.0);
    EXPECT_DOUBLE_EQ(rvc.charge_of(0, 98), 0.5);
    EXPECT_DOUBLE_EQ(rvc.charge_of(0, 102), 0.5);
    EXPECT_EQ(rvc.table_occupancy(0), 4u);
}

TEST(Rvc, ActivatingATrackedVictimRestoresItsCharge)
{
    Device dev;
    RvcConfig config;
    config.threshold = 1e9;
    Rvc rvc(dev.dram, config);
    dev.access(0, 100);  // row 101 now carries credit 1.0
    dev.access(0, 101);
    // The activation physically restored row 101, so its credit is
    // zeroed; its own neighbours picked up the new disturbance.
    EXPECT_DOUBLE_EQ(rvc.charge_of(0, 101), 0.0);
    EXPECT_DOUBLE_EQ(rvc.charge_of(0, 102), 1.5);  // 0.5 + 1.0
}

TEST(Rvc, ThresholdRefreshesTheVictimItselfOnce)
{
    Device dev;
    RvcConfig config;
    config.threshold = 10.0;
    config.second_neighbor_weight = 0.0;
    Rvc rvc(dev.dram, config);
    dev.hammer_pair(0, 100, 2000, 50);
    // Four distance-1 victims, each crossing its budget 5 times; the
    // victim-centric response refreshes ONE row per crossing (the victim
    // directly), not a neighbourhood — 20 total, not 40.
    EXPECT_EQ(rvc.stats().neighbor_refreshes, 20u);
    EXPECT_DOUBLE_EQ(rvc.charge_of(0, 101), 0.0);
}

TEST(Rvc, EvictionDisplacesTheColdestVictimFirst)
{
    Device dev;
    RvcConfig config;
    config.table_size = 2;
    config.threshold = 1e9;
    config.second_neighbor_weight = 0.0;
    Rvc rvc(dev.dram, config);
    // Classic double-sided pair around victim 101: the sandwiched victim
    // accrues 2 credits per round and must never be displaced, while the
    // outer victims (99, 103) ping-pong through the remaining slot.
    dev.hammer_pair(0, 100, 102, 20);
    EXPECT_DOUBLE_EQ(rvc.charge_of(0, 101), 40.0);
    EXPECT_EQ(rvc.stats().table_evictions, 39u);
    EXPECT_LE(rvc.charge_of(0, 99) + rvc.charge_of(0, 103), 2.0);

    // Equal charges: ties go oldest-first wherever the oldest victim
    // sits (199 took 99's slot, yet 101 is displaced next, not 199).
    Device tie;
    Rvc tied(tie.dram, config);
    tie.access(0, 100);
    tie.access(0, 200);
    EXPECT_DOUBLE_EQ(tied.charge_of(0, 99), 0.0);
    EXPECT_DOUBLE_EQ(tied.charge_of(0, 101), 0.0);
    EXPECT_DOUBLE_EQ(tied.charge_of(0, 199), 1.0);
    EXPECT_DOUBLE_EQ(tied.charge_of(0, 201), 1.0);
    EXPECT_EQ(tied.table_occupancy(0), 2u);
    EXPECT_EQ(tied.stats().table_evictions, 2u);
}

TEST(Rvc, WindowRolloverDropsStaleCredit)
{
    Device dev;
    RvcConfig config;
    config.threshold = 1e9;
    Rvc rvc(dev.dram, config);
    dev.access(0, 100);
    ASSERT_GT(rvc.table_occupancy(0), 0u);
    dev.now += dev.dram.config().refresh_period;
    dev.access(0, 2000);
    // The refresh sweep restored every row; only the new activation's
    // victims are tracked.
    EXPECT_DOUBLE_EQ(rvc.charge_of(0, 99), 0.0);
    EXPECT_DOUBLE_EQ(rvc.charge_of(0, 101), 0.0);
    EXPECT_DOUBLE_EQ(rvc.charge_of(0, 2001), 1.0);
}

// ---------------------------------------------------------------------------
// Dapper: Misra-Gries summary + budgeted response.

TEST(Dapper, ThrashDrainsCountersWithoutManufacturingRefreshes)
{
    Device dev;
    DapperConfig config;
    config.table_size = 4;
    config.mac = 100;
    Dapper dapper(dev.dram, config);
    for (int pass = 0; pass < 10; ++pass) {
        for (std::uint32_t r : {100u, 200u, 300u, 400u})
            dev.access(0, r);
    }
    ASSERT_EQ(dapper.table_occupancy(0), 4u);
    // A cold-row churn at a full table decrements instead of evicting:
    // no refresh is ever issued and occupancy never exceeds the table.
    for (std::uint32_t i = 0; i < 100; ++i) {
        dev.access(0, 1000 + 3 * i);
        EXPECT_LE(dapper.table_occupancy(0), 4u);
    }
    EXPECT_EQ(dapper.stats().neighbor_refreshes, 0u);
    EXPECT_EQ(dapper.stats().refreshes_suppressed, 0u);
    EXPECT_GT(dapper.stats().table_evictions, 0u);

    // Equal counts: no tie-break singles a row out. One cold row drains
    // the whole table at once and is itself not admitted.
    Device tie;
    Dapper tied(tie.dram, config);
    for (std::uint32_t r : {100u, 200u, 300u, 400u, 500u})
        tie.access(0, r);
    for (std::uint32_t r : {100u, 200u, 300u, 400u, 500u})
        EXPECT_EQ(tied.counter_of(0, r), 0u) << "row " << r;
    EXPECT_EQ(tied.table_occupancy(0), 0u);
    EXPECT_EQ(tied.stats().table_evictions, 4u);
}

TEST(Dapper, HotRowKeepsItsCounterThroughThrash)
{
    Device dev;
    DapperConfig config;
    config.table_size = 4;
    config.mac = 50;
    Dapper dapper(dev.dram, config);
    // Misra-Gries guarantee: a row taking half the activation stream
    // cannot be starved by interleaved cold rows — it still crosses the
    // MAC and triggers its refresh.
    for (std::uint32_t i = 0; i < 400; ++i) {
        dev.access(0, 100);
        dev.access(0, 1000 + 3 * i);
    }
    EXPECT_GT(dapper.stats().neighbor_refreshes, 0u);
}

TEST(Dapper, BudgetSuppressesThenRetriesWithTheCounterArmed)
{
    Device dev;
    DapperConfig config;
    config.mac = 5;
    config.refresh_budget = 1;
    config.refresh_radius = 1;
    Dapper dapper(dev.dram, config);
    // Two rows cross the MAC inside one tREFI; the budget covers one.
    dev.hammer_pair(0, 100, 200, 5);
    EXPECT_EQ(dapper.stats().neighbor_refreshes, 2u);
    EXPECT_EQ(dapper.stats().refreshes_suppressed, 1u);
    // The suppressed counter stays armed...
    EXPECT_EQ(dapper.counter_of(0, 200), 5u);
    // ...and fires on the next activation once the window budget resets.
    dev.now += dev.dram.config().t_refi();
    dev.access(0, 200);
    EXPECT_EQ(dapper.stats().neighbor_refreshes, 4u);
    EXPECT_EQ(dapper.counter_of(0, 200), 0u);
}

// ---------------------------------------------------------------------------
// Attachment: one tracker per device, and a device may outlive it.

TEST(Mitigation, DeviceOutlivesItsTracker)
{
    for (const MitigationEntry &entry : mitigation_registry().all()) {
        Device dev;
        {
            const auto gone = entry.make(dev.dram, 1);
            dev.hammer_pair(0, 100, 2000, 4);
        }
        // The device runs untracked; nothing may reach the dead tracker.
        dev.hammer_pair(0, 100, 2000, 50);
        // Its slot is free again: a successor sees only its own traffic.
        const auto successor = entry.make(dev.dram, 2);
        dev.hammer_pair(0, 100, 2000, 4);
        EXPECT_EQ(successor->stats().activations_observed, 8u)
            << entry.name;
    }
}

TEST(Mitigation, SecondTrackerOnOneDeviceIsRejected)
{
    Device dev;
    const auto first = mitigation_registry().at("rvc").make(dev.dram, 1);
    EXPECT_THROW((void)mitigation_registry().at("trr").make(dev.dram, 1),
                 std::logic_error);
    // The rejected tracker left the first one attached.
    dev.hammer_pair(0, 100, 2000, 4);
    EXPECT_EQ(first->stats().activations_observed, 8u);
}

// ---------------------------------------------------------------------------
// Registry: declarative tracker selection for scenario specs.

TEST(Registry, ListsTheFullTrackerZoo)
{
    const MitigationRegistry &registry = mitigation_registry();
    for (const char *name :
         {"para", "trr", "ctrr-sampled", "ctrr-evict", "ctrr-radius2",
          "rvc", "dapper"}) {
        const MitigationEntry *entry = registry.find(name);
        ASSERT_NE(entry, nullptr) << name;
        EXPECT_FALSE(entry->description.empty()) << name;
    }
    EXPECT_EQ(registry.find("none"), nullptr);  // "no tracker" is the
                                                // empty spec, not a name
}

TEST(Registry, EveryFactoryBuildsAWorkingTracker)
{
    for (const MitigationEntry &entry : mitigation_registry().all()) {
        Device dev;
        auto tracker = entry.make(dev.dram, 1234);
        ASSERT_NE(tracker, nullptr) << entry.name;
        dev.hammer_pair(0, 100, 2000, 4);
        EXPECT_EQ(tracker->stats().activations_observed, 8u)
            << entry.name;
    }
}

TEST(Registry, DuplicateNameIsRejectedWithAnActionableError)
{
    MitigationRegistry registry;
    const MitigationFactory factory = [](dram::DramSystem &dram,
                                         std::uint64_t) {
        return std::make_unique<Trr>(dram, 32000);
    };
    registry.add({"trr", "idealized per-row TRR", factory});
    try {
        registry.add({"trr", "a second trr", factory});
        FAIL() << "duplicate registration should throw";
    } catch (const std::invalid_argument &e) {
        // The message names the collision and what is already taken.
        EXPECT_NE(std::string(e.what()).find("trr"), std::string::npos);
    }
}

TEST(Registry, UnknownNameListsTheKnownTrackers)
{
    try {
        (void)mitigation_registry().at("nonesuch");
        FAIL() << "unknown tracker should throw";
    } catch (const std::out_of_range &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("nonesuch"), std::string::npos);
        EXPECT_NE(message.find("rvc"), std::string::npos);
        EXPECT_NE(message.find("dapper"), std::string::npos);
    }
}

}  // namespace
}  // namespace anvil::mitigations
