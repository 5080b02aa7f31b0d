/**
 * @file
 * Tests for the synthetic SPEC2006 workload substrate: profile sanity,
 * miss-rate calibration groups, thrash-phase machinery, and determinism.
 */
#include <gtest/gtest.h>

#include "common/units.hh"
#include "mem/memory_system.hh"
#include "pmu/pmu.hh"
#include "workload/profile.hh"
#include "workload/workload.hh"

namespace anvil::workload {
namespace {

mem::SystemConfig
machine_config()
{
    return mem::SystemConfig{};
}

/** Runs @p name alone for @p duration; returns LLC misses per 6 ms. */
double
misses_per_window(const std::string &name, Tick duration)
{
    mem::MemorySystem machine(machine_config());
    Workload load(machine, spec_profile(name));
    const Tick start = machine.now();
    load.run_for(duration);
    const double windows = to_ms(machine.now() - start) / 6.0;
    return static_cast<double>(
               machine.pmu().counter(pmu::Event::kLlcMisses).value()) /
           windows;
}

TEST(SpecProfiles, AllTwelveBenchmarksPresent)
{
    const auto &profiles = spec2006_int().all();
    EXPECT_EQ(profiles.size(), 12u);
    for (const char *name :
         {"astar", "bzip2", "gcc", "gobmk", "h264ref", "hmmer",
          "libquantum", "mcf", "omnetpp", "perlbench", "sjeng",
          "xalancbmk"}) {
        EXPECT_NO_THROW(spec_profile(name));
    }
    EXPECT_THROW(spec_profile("povray"), std::out_of_range);
}

TEST(SpecProfiles, MemoryIntensiveGroupCrossesStage1Threshold)
{
    // Section 4.3: libquantum, omnetpp, mcf, xalancbmk cross the 20 K /
    // 6 ms threshold 95-99 % of the time.
    for (const char *name : {"libquantum", "mcf", "omnetpp", "xalancbmk"}) {
        EXPECT_GT(misses_per_window(name, ms(30)), 20000.0)
            << name << " should be memory intensive";
    }
}

TEST(SpecProfiles, CacheResidentGroupStaysUnderThreshold)
{
    // h264ref, gobmk, sjeng, hmmer cross the threshold < 10 % of windows.
    for (const char *name : {"h264ref", "gobmk", "sjeng", "hmmer"}) {
        EXPECT_LT(misses_per_window(name, ms(30)), 15000.0)
            << name << " should be cache resident";
    }
}

TEST(Workload, StepsAdvanceTimeAndCountOps)
{
    mem::MemorySystem machine(machine_config());
    Workload load(machine, spec_profile("sjeng"));
    const Tick before = machine.now();
    load.run_ops(1000);
    EXPECT_EQ(load.ops(), 1000u);
    EXPECT_GT(machine.now(), before);
}

TEST(Workload, DeterministicForFixedSeeds)
{
    auto run = [] {
        mem::MemorySystem machine(machine_config());
        Workload load(machine, spec_profile("gcc"));
        load.run_ops(20000);
        return machine.now();
    };
    EXPECT_EQ(run(), run());
}

TEST(Workload, DifferentSeedsDiverge)
{
    auto run = [](std::uint64_t seed) {
        mem::MemorySystem machine(machine_config());
        SpecProfile profile = spec_profile("gcc");
        profile.seed = seed;
        Workload load(machine, profile);
        load.run_ops(20000);
        return machine.now();
    };
    EXPECT_NE(run(1), run(2));
}

TEST(Workload, ThrashPhasesToggle)
{
    mem::MemorySystem machine(machine_config());
    SpecProfile profile = spec_profile("bzip2");
    profile.thrash_phases_per_sec = 500.0;  // force frequent phases
    profile.thrash_duration = ms(1.0);
    Workload load(machine, profile);

    bool saw_thrash = false;
    bool saw_normal = false;
    for (int i = 0; i < 2000000 && !(saw_thrash && saw_normal); ++i) {
        load.step();
        (load.in_thrash_phase() ? saw_thrash : saw_normal) = true;
    }
    EXPECT_TRUE(saw_thrash);
    EXPECT_TRUE(saw_normal);
}

TEST(Workload, ThrashPhaseConcentratesMissesOnFewRows)
{
    // During a strong thrash phase the two block lines miss repeatedly —
    // the row-locality signature ANVIL must distinguish from attacks.
    mem::MemorySystem machine(machine_config());
    SpecProfile profile = spec_profile("bzip2");
    profile.thrash_phases_per_sec = 1000.0;
    profile.thrash_duration = ms(50.0);
    profile.thrash_burst_fraction = 0.0;
    profile.thrash_strong_fraction = 1.0;  // always full-speed ping-pong
    Workload load(machine, profile);

    // Get into the phase, then measure.
    while (!load.in_thrash_phase())
        load.step();
    const std::uint64_t before =
        machine.pmu().counter(pmu::Event::kLlcMisses).value();
    const Tick t0 = machine.now();
    while (machine.now() - t0 < ms(6) && load.in_thrash_phase())
        load.step();
    const std::uint64_t misses =
        machine.pmu().counter(pmu::Event::kLlcMisses).value() - before;
    // Full-speed ping-pong: well above the Stage-1 threshold.
    EXPECT_GT(misses, 20000u);
}

TEST(Workload, ZeroThrashProfilesNeverEnterPhases)
{
    mem::MemorySystem machine(machine_config());
    Workload load(machine, spec_profile("h264ref"));
    for (int i = 0; i < 100000; ++i) {
        load.step();
        ASSERT_FALSE(load.in_thrash_phase());
    }
}

TEST(Workload, BenignWorkloadsNeverFlipBits)
{
    // Property: no SPEC profile hammers hard enough to flip bits, even
    // with thrash phases — they are false-positive *sources*, not attacks.
    for (const char *name : {"bzip2", "libquantum", "mcf"}) {
        mem::MemorySystem machine(machine_config());
        Workload load(machine, spec_profile(name));
        load.run_for(ms(100));
        EXPECT_TRUE(machine.dram().flips().empty()) << name;
    }
}

}  // namespace
}  // namespace anvil::workload
