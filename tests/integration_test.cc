/**
 * @file
 * End-to-end integration tests: the full Table-3 scenario (attack under
 * light/heavy load with ANVIL), false-positive behaviour on benign
 * workloads (Table 4), and the slowdown methodology of Figure 3 — at
 * reduced durations suitable for CI.
 */
#include <gtest/gtest.h>

#include "anvil/anvil.hh"
#include "attack/hammer.hh"
#include "attack/memory_layout.hh"
#include "common/units.hh"
#include "mem/memory_system.hh"
#include "scenario/scheduler.hh"
#include "workload/workload.hh"

namespace anvil {
namespace {

TEST(Integration, Table3HeavyLoadScenario)
{
    // CLFLUSH attack + mcf + libquantum + omnetpp, all under ANVIL:
    // detection still lands within a refresh period and no bits flip.
    mem::MemorySystem machine{mem::SystemConfig{}};

    mem::AddressSpace &attacker = machine.create_process();
    const std::uint64_t buffer_bytes = 64ULL << 20;
    const Addr buffer = attacker.mmap(buffer_bytes);
    attack::MemoryLayout layout(attacker, machine.dram().address_map(),
                                machine.hierarchy());
    layout.scan(buffer, buffer_bytes);
    const auto targets = layout.find_double_sided_targets(4);
    ASSERT_FALSE(targets.empty());

    workload::Workload mcf(machine, workload::spec_profile("mcf"));
    workload::Workload libq(machine, workload::spec_profile("libquantum"));
    workload::Workload omnet(machine, workload::spec_profile("omnetpp"));

    detector::Anvil anvil(machine, machine.pmu(),
                          detector::AnvilConfig::baseline());
    bool attack_running = false;
    anvil.set_ground_truth([&] { return attack_running; });
    anvil.start();

    attack::ClflushDoubleSided hammer(machine, attacker.pid(),
                                      targets.front());

    attack_running = true;
    const Tick start = machine.now();
    scenario::TenantScheduler sched(machine);
    sched.add({&hammer});
    sched.add({&mcf});
    sched.add({&libq});
    sched.add({&omnet});
    sched.run_until(machine.now() + ms(128));
    attack_running = false;

    EXPECT_TRUE(machine.dram().flips().empty()) << "bit flip under ANVIL";
    ASSERT_GE(anvil.stats().detections, 1u);
    const Tick latency = anvil.detections().front().time - start;
    // Paper: 12.8 ms average under heavy load; allow generous slack for
    // the interleaved-load timing model.
    EXPECT_LT(to_ms(latency), 40.0);
}

TEST(Integration, UnprotectedHeavyLoadStillFlips)
{
    // Control for the scenario above: without ANVIL the same mix flips.
    mem::MemorySystem machine{mem::SystemConfig{}};
    mem::AddressSpace &attacker = machine.create_process();
    const std::uint64_t buffer_bytes = 64ULL << 20;
    const Addr buffer = attacker.mmap(buffer_bytes);
    attack::MemoryLayout layout(attacker, machine.dram().address_map(),
                                machine.hierarchy());
    layout.scan(buffer, buffer_bytes);

    // Find a weakest-threshold target so the control flips quickly.
    std::optional<attack::DoubleSidedTarget> chosen;
    for (const auto &t : layout.find_double_sided_targets(64)) {
        if (machine.dram().disturbance(t.flat_bank).threshold_of(
                t.victim_row) == machine.dram().config().flip_threshold) {
            chosen = t;
            break;
        }
    }
    ASSERT_TRUE(chosen.has_value());

    workload::Workload mcf(machine, workload::spec_profile("mcf"));
    attack::ClflushDoubleSided hammer(machine, attacker.pid(), *chosen);
    scenario::TenantScheduler sched(machine);
    sched.add({&hammer});
    sched.add({&mcf});
    sched.run_until(machine.now() + ms(160));
    EXPECT_FALSE(machine.dram().flips().empty());
}

TEST(Integration, BenignLowMissWorkloadProducesNoRefreshes)
{
    // Table 4: h264ref/hmmer-class workloads see zero superfluous
    // refreshes.
    mem::MemorySystem machine{mem::SystemConfig{}};
    detector::Anvil anvil(machine, machine.pmu(),
                          detector::AnvilConfig::baseline());
    anvil.set_ground_truth([] { return false; });
    anvil.start();
    workload::Workload load(machine, workload::spec_profile("h264ref"));
    load.run_for(ms(200));
    EXPECT_EQ(anvil.stats().false_positive_refreshes, 0u);
}

TEST(Integration, MemoryIntensiveStreamingIsNotFlagged)
{
    // libquantum's streaming crosses Stage 1 constantly but has no row
    // locality: Stage 2 must reject it (low false positives, Table 4).
    mem::MemorySystem machine{mem::SystemConfig{}};
    detector::Anvil anvil(machine, machine.pmu(),
                          detector::AnvilConfig::baseline());
    anvil.set_ground_truth([] { return false; });
    anvil.start();
    workload::SpecProfile profile = workload::spec_profile("libquantum");
    profile.thrash_phases_per_sec = 0.0;  // isolate the streaming part
    workload::Workload load(machine, profile);
    load.run_for(ms(200));
    EXPECT_GT(anvil.stats().stage1_triggers, 5u);
    EXPECT_EQ(anvil.stats().false_positive_refreshes, 0u);
}

TEST(Integration, SlowdownMethodologyFixedWork)
{
    // Figure 3 methodology at miniature scale: run a fixed op count with
    // and without ANVIL; the ratio must be close to 1 for a low-miss
    // benchmark and bounded for a high-miss one.
    auto run_time = [](const char *name, bool with_anvil) {
        mem::MemorySystem machine{mem::SystemConfig{}};
        std::unique_ptr<detector::Anvil> anvil;
        if (with_anvil) {
            anvil = std::make_unique<detector::Anvil>(
                machine, machine.pmu(), detector::AnvilConfig::baseline());
            anvil->start();
        }
        workload::Workload load(machine, workload::spec_profile(name));
        const Tick start = machine.now();
        load.run_ops(400000);
        return machine.now() - start;
    };

    const double sjeng_slowdown =
        static_cast<double>(run_time("sjeng", true)) /
        static_cast<double>(run_time("sjeng", false));
    EXPECT_GT(sjeng_slowdown, 0.99);
    EXPECT_LT(sjeng_slowdown, 1.02);

    const double mcf_slowdown =
        static_cast<double>(run_time("mcf", true)) /
        static_cast<double>(run_time("mcf", false));
    EXPECT_GT(mcf_slowdown, 1.0);
    EXPECT_LT(mcf_slowdown, 1.10);
}

TEST(Integration, DoubleRefreshSlowsMemoryIntensiveWorkloads)
{
    // Figure 3's comparison point: halving the refresh interval costs
    // memory-intensive workloads measurable time, without any detector.
    auto run_time = [](Tick refresh_period) {
        mem::SystemConfig config;
        config.dram.refresh_period = refresh_period;
        mem::MemorySystem machine(config);
        workload::Workload load(machine, workload::spec_profile("mcf"));
        const Tick start = machine.now();
        load.run_ops(400000);
        return machine.now() - start;
    };
    const double slowdown = static_cast<double>(run_time(ms(32))) /
                            static_cast<double>(run_time(ms(64)));
    EXPECT_GT(slowdown, 1.003);
    EXPECT_LT(slowdown, 1.10);
}

TEST(Integration, AttackAfterAnvilUnloadSucceedsAgain)
{
    // The protection is the module, not the simulator: unloading ANVIL
    // re-exposes the machine.
    mem::MemorySystem machine{mem::SystemConfig{}};
    mem::AddressSpace &attacker = machine.create_process();
    const Addr buffer = attacker.mmap(64ULL << 20);
    attack::MemoryLayout layout(attacker, machine.dram().address_map(),
                                machine.hierarchy());
    layout.scan(buffer, 64ULL << 20);
    std::optional<attack::DoubleSidedTarget> chosen;
    for (const auto &t : layout.find_double_sided_targets(64)) {
        if (machine.dram().disturbance(t.flat_bank).threshold_of(
                t.victim_row) == machine.dram().config().flip_threshold) {
            chosen = t;
            break;
        }
    }
    ASSERT_TRUE(chosen.has_value());

    detector::Anvil anvil(machine, machine.pmu(),
                          detector::AnvilConfig::baseline());
    anvil.start();
    attack::ClflushDoubleSided hammer(machine, attacker.pid(), *chosen);
    EXPECT_FALSE(hammer.run(ms(64)).flipped);

    anvil.stop();
    EXPECT_TRUE(hammer.run(ms(80)).flipped);
}

}  // namespace
}  // namespace anvil
