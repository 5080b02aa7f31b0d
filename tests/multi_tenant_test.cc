/**
 * @file
 * Tests of the multi-tenant process model: tenant labels, the
 * round-robin TenantScheduler (quantum slicing, start delays), bit-exact
 * determinism of multi-tenant trials, per-tenant seed isolation, and the
 * daemon's cross-tenant detection attribution.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "anvil/anvil.hh"
#include "attack/hammer.hh"
#include "common/error.hh"
#include "common/units.hh"
#include "mem/memory_system.hh"
#include "pmu/pmu.hh"
#include "runner/trial.hh"
#include "scenario/builder.hh"
#include "scenario/scheduler.hh"
#include "scenario/spec.hh"
#include "scenario/testbed.hh"
#include "scenario/validate.hh"
#include "workload/workload.hh"

using namespace anvil;

namespace {

runner::TrialContext
context_for(const scenario::ScenarioSpec &spec, std::uint64_t trial)
{
    runner::TrialSpec ts;
    ts.scenario = spec.name;
    ts.trial = trial;
    ts.seed = runner::trial_seed(0x5eedULL, spec.name, trial);
    return runner::TrialContext(ts);
}

TEST(TenantLabels, DerivesAndDedupesLabelsInDeclarationOrder)
{
    scenario::ScenarioSpec spec;
    scenario::TenantSpec hog =
        scenario::workload_tenant({"gcc", "w:gcc", false});
    hog.name = "hog";
    spec.tenants = {
        scenario::attacker_tenant(),
        scenario::workload_tenant({"mcf", "", false}),
        scenario::workload_tenant({"mcf", "", false}),
        hog,
    };

    EXPECT_EQ(scenario::tenant_labels(spec),
              (std::vector<std::string>{"attacker", "mcf", "mcf#2",
                                        "hog"}));
}

/**
 * A tiny two-process rig: each "tenant" step performs exactly one load
 * from its own space, and an observer records the pid order, so the
 * scheduler's interleave is directly visible.
 */
TEST(TenantScheduler, QuantumIsGrantedInCompletedAccesses)
{
    mem::MemorySystem machine{mem::SystemConfig{}};
    mem::AddressSpace &a = machine.create_process();
    mem::AddressSpace &b = machine.create_process();
    const Addr va_a = a.mmap(1 << 20);
    const Addr va_b = b.mmap(1 << 20);

    std::vector<Pid> order;
    machine.add_observer(
        [&order](const mem::AccessInfo &info) { order.push_back(info.pid); });

    scenario::TenantScheduler sched(machine);
    Addr off_a = 0;
    Addr off_b = 0;
    scenario::ScheduledTenant ta;
    ta.name = "a";
    ta.pid = a.pid();
    ta.quantum_accesses = 3;
    ta.step = [&] {
        off_a = (off_a + 64) % (1 << 20);
        machine.access(a.pid(), va_a + off_a, AccessType::kLoad);
    };
    scenario::ScheduledTenant tb;
    tb.name = "b";
    tb.pid = b.pid();
    tb.quantum_accesses = 1;
    tb.step = [&] {
        off_b = (off_b + 64) % (1 << 20);
        machine.access(b.pid(), va_b + off_b, AccessType::kLoad);
    };
    sched.add(std::move(ta));
    sched.add(std::move(tb));

    sched.run_until(machine.now() + ms(1));

    ASSERT_GE(order.size(), 8u);
    // Quantum 3 vs 1: the round pattern is AAAB AAAB ...
    for (std::size_t i = 0; i + 4 <= 8; i += 4) {
        EXPECT_EQ(order[i + 0], a.pid());
        EXPECT_EQ(order[i + 1], a.pid());
        EXPECT_EQ(order[i + 2], a.pid());
        EXPECT_EQ(order[i + 3], b.pid());
    }

    const auto &stats = sched.stats();
    EXPECT_EQ(stats[0].accesses, stats[0].steps);
    EXPECT_GT(stats[0].quanta, 0u);
    // Per-space attribution matches what the scheduler observed.
    EXPECT_EQ(a.accesses(), stats[0].accesses);
    EXPECT_EQ(b.accesses(), stats[1].accesses);
}

TEST(TenantScheduler, RunUntilOvershootsByAtMostOneStep)
{
    // The deadline is checked before every step, so the clock passes it
    // by no more than the one step that crossed it.
    mem::MemorySystem machine{mem::SystemConfig{}};
    workload::Workload load(machine, workload::spec_profile("sjeng"));
    scenario::TenantScheduler sched(machine);
    sched.add({.name = "sjeng", .step = [&] { load.step(); }});
    sched.run_until(ms(3));
    EXPECT_GE(machine.now(), ms(3));
    EXPECT_LT(machine.now(), ms(3) + us(10));
}

TEST(TenantScheduler, EmptyScheduleAdvancesToDeadline)
{
    mem::MemorySystem machine{mem::SystemConfig{}};
    scenario::TenantScheduler sched(machine);
    const Tick deadline = machine.now() + ms(2);
    sched.run_until(deadline);
    EXPECT_EQ(machine.now(), deadline);
}

/** The colocation shape: one attacker beside two victims. */
scenario::ScenarioSpec
colocation_spec()
{
    scenario::ScenarioSpec spec;
    spec.name = "test-colocation";
    spec.pre_detector = {us(137), us(6000), "phase"};
    spec.detector = detector::AnvilConfig::baseline();
    spec.pre_attack = {ms(1), us(4000), "attack-phase"};
    spec.tenants = {
        scenario::attacker_tenant({}, 64),
        scenario::workload_tenant({"mcf", "w:mcf", false}, 64),
        scenario::workload_tenant({"libquantum", "w:libquantum", false}, 64),
    };
    spec.run.mode = scenario::RunMode::kInterleaveFor;
    spec.run.duration = ms(32);
    spec.outputs = {scenario::Output::kDetections,
                    scenario::Output::kTenantDetections,
                    scenario::Output::kCrossTenantFp};
    return spec;
}

TEST(MultiTenantScenario, BackToBackRunsAreBitIdentical)
{
    const scenario::ScenarioSpec spec = colocation_spec();

    std::vector<Tick> detections[2];
    std::vector<std::uint64_t> ops[2];
    Tick end[2] = {0, 0};
    const runner::TrialContext ctx = context_for(spec, 0);
    for (int rep = 0; rep < 2; ++rep) {
        scenario::ScenarioBuilder builder(spec, ctx);
        scenario::Execution &exec = builder.build();
        builder.run();
        for (const auto &d : exec.anvil()->detections())
            detections[rep].push_back(d.time);
        for (const auto &w : exec.workloads())
            ops[rep].push_back(w->ops());
        end[rep] = exec.machine().now();
    }
    EXPECT_EQ(detections[0], detections[1]);
    EXPECT_EQ(ops[0], ops[1]);
    EXPECT_EQ(end[0], end[1]);
    EXPECT_FALSE(detections[0].empty());
}

TEST(MultiTenantScenario, TenantSeedStreamsAreIsolated)
{
    // Thrash-free profiles: their access streams are pure functions of
    // their own RNG, so re-seeding one tenant must leave the other's
    // address trace untouched (timing may shift; addresses may not).
    auto spec_with = [](const std::string &hmmer_stream) {
        scenario::ScenarioSpec spec;
        spec.name = "test-seed-isolation";
        spec.tenants = {
            scenario::workload_tenant({"h264ref", "w:h264", false}),
            scenario::workload_tenant({"hmmer", hmmer_stream, false}),
        };
        spec.run.mode = scenario::RunMode::kInterleaveFor;
        spec.run.duration = ms(4);
        return spec;
    };

    auto trace_of = [](const scenario::ScenarioSpec &spec, Pid pid,
                       runner::TrialContext ctx) {
        scenario::ScenarioBuilder builder(spec, ctx);
        scenario::Execution &exec = builder.build();
        std::vector<Addr> trace;
        exec.machine().add_observer(
            [&trace, pid](const mem::AccessInfo &info) {
                if (info.pid == pid)
                    trace.push_back(info.va);
            });
        builder.run();
        return trace;
    };

    const scenario::ScenarioSpec base = spec_with("w:hmmer");
    const scenario::ScenarioSpec reseeded = spec_with("w:hmmer2");
    // Both workloads are built in tenant order on a fresh machine, so
    // pids are stable across the two specs.
    const Pid h264_pid = 0;
    const Pid hmmer_pid = 1;

    // The reseeded neighbor changes access *timing*, so the fixed-time
    // run grants each tenant a different number of turns; compare the
    // common prefix, where the per-step address choice lives.
    const auto prefix = [](std::vector<Addr> x, const std::vector<Addr> &y) {
        x.resize(std::min(x.size(), y.size()));
        return x;
    };

    const auto h264_base = trace_of(base, h264_pid, context_for(base, 0));
    const auto h264_reseeded =
        trace_of(reseeded, h264_pid, context_for(base, 0));
    ASSERT_GT(std::min(h264_base.size(), h264_reseeded.size()), 1000u);
    EXPECT_EQ(prefix(h264_base, h264_reseeded),
              prefix(h264_reseeded, h264_base));

    const auto hmmer_base = trace_of(base, hmmer_pid, context_for(base, 0));
    const auto hmmer_reseeded =
        trace_of(reseeded, hmmer_pid, context_for(base, 0));
    ASSERT_GT(std::min(hmmer_base.size(), hmmer_reseeded.size()), 1000u);
    EXPECT_NE(prefix(hmmer_base, hmmer_reseeded),
              prefix(hmmer_reseeded, hmmer_base));
}

TEST(CrossTenantAttribution, DetectionsBlameTheAttackerTenant)
{
    const scenario::ScenarioSpec spec = colocation_spec();
    const runner::TrialContext ctx = context_for(spec, 1);
    scenario::ScenarioBuilder builder(spec, ctx);
    scenario::Execution &exec = builder.build();
    builder.run();

    ASSERT_FALSE(exec.anvil()->detections().empty());
    ASSERT_EQ(exec.intruders().size(), 1u);
    const Pid attacker_pid = exec.intruders()[0]->pid();
    for (const detector::Detection &d : exec.anvil()->detections()) {
        EXPECT_EQ(d.offender_pid, attacker_pid);
        const std::size_t idx = exec.tenant_index_of(d.offender_pid);
        ASSERT_LT(idx, exec.tenants().size());
        EXPECT_TRUE(exec.tenants()[idx].is_attacker);
    }
}

TEST(CrossTenantAttribution, HammeringProcessIsBlamedNotItsNeighbor)
{
    // Raw-component rig: two processes on one machine under one daemon;
    // only the second hammers. Majority-vote attribution must charge
    // every detection to the hammering pid even though the idle
    // neighbor was created first.
    mem::MemorySystem machine{mem::SystemConfig{}};
    pmu::Pmu pmu(machine);
    mem::AddressSpace &bystander = machine.create_process();
    (void)bystander.mmap(1 << 20);
    scenario::Attacker hammerer(machine);

    detector::Anvil anvil(machine, pmu, detector::AnvilConfig::baseline());
    anvil.start();

    const auto target =
        scenario::weakest_double_sided(machine, hammerer);
    ASSERT_TRUE(target.has_value());
    attack::ClflushDoubleSided hammer(machine, hammerer.pid(), *target);
    hammer.run(ms(40));

    ASSERT_FALSE(anvil.detections().empty());
    for (const detector::Detection &d : anvil.detections()) {
        EXPECT_EQ(d.offender_pid, hammerer.pid());
        EXPECT_NE(d.offender_pid, bystander.pid());
    }
}

TEST(TenantValidation, RejectsPayloadlessAndDoublePayloadTenants)
{
    scenario::ScenarioSpec spec;
    spec.name = "bad";
    spec.run.mode = scenario::RunMode::kInterleaveFor;
    spec.run.duration = ms(1);

    scenario::TenantSpec empty;
    spec.tenants = {empty};
    EXPECT_THROW(scenario::validate(spec), Error);

    scenario::TenantSpec both = scenario::attacker_tenant();
    both.workload = scenario::WorkloadSpec{"mcf", "", false};
    spec.tenants = {both};
    EXPECT_THROW(scenario::validate(spec), Error);
}

TEST(TenantValidation, RejectsZeroQuantum)
{
    scenario::ScenarioSpec spec;
    spec.name = "bad-quantum";
    spec.run.mode = scenario::RunMode::kInterleaveFor;
    spec.run.duration = ms(1);
    spec.tenants = {scenario::workload_tenant({"mcf", "", false}, 0)};
    EXPECT_THROW(scenario::validate(spec), Error);
}

TEST(TenantValidation, RejectsBadAttackBuffers)
{
    scenario::ScenarioSpec spec;
    spec.name = "bad-buffer";
    spec.run.mode = scenario::RunMode::kInterleaveFor;
    spec.run.duration = ms(1);

    scenario::TenantSpec t = scenario::attacker_tenant();
    t.attack->buffer_bytes = (64ULL << 20) + 4096;  // not a power of two
    spec.tenants = {t};
    EXPECT_THROW(scenario::validate(spec), Error);

    t.attack->buffer_bytes = 1 << 20;  // below one 2 MB huge page
    spec.tenants = {t};
    EXPECT_THROW(scenario::validate(spec), Error);

    // Individually fine, but together past the huge-page pool (half of
    // physical capacity).
    t.attack->buffer_bytes = spec.system.dram.capacity_bytes() / 2;
    spec.tenants = {t, t};
    EXPECT_THROW(scenario::validate(spec), Error);

    spec.tenants = {t};
    EXPECT_NO_THROW(scenario::validate(spec));
}

TEST(TenantValidation, TenantOpsNeedsAWorkloadTenant)
{
    scenario::ScenarioSpec spec;
    spec.name = "no-workloads";
    spec.tenants = {scenario::attacker_tenant()};
    spec.run.mode = scenario::RunMode::kInterleaveFor;
    spec.run.duration = ms(1);
    spec.outputs = {scenario::Output::kTenantOps};
    EXPECT_THROW(scenario::validate(spec), Error);
}

TEST(TenantValidation, UnknownMitigationSuggestsTheNearestTracker)
{
    scenario::ScenarioSpec spec;
    spec.name = "typo";
    spec.mitigation = "ctr-evict";  // a typo for ctrr-evict
    spec.run.mode = scenario::RunMode::kInterleaveFor;
    spec.run.duration = ms(1);
    try {
        scenario::validate(spec);
        FAIL() << "expected validation to reject the unknown tracker";
    } catch (const Error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("did_you_mean=ctrr-evict"), std::string::npos)
            << what;
    }
}

TEST(TenantValidation, BufferBytesSizesTheAttackerProcess)
{
    scenario::ScenarioSpec spec;
    spec.name = "attacker-buffer";
    scenario::AttackSpec attack;
    attack.buffer_bytes = 32ULL << 20;
    spec.tenants = {scenario::attacker_tenant(attack)};
    spec.run.mode = scenario::RunMode::kInterleaveFor;
    spec.run.duration = ms(1);
    EXPECT_NO_THROW(scenario::validate(spec));

    const runner::TrialContext ctx = context_for(spec, 0);
    scenario::ScenarioBuilder builder(spec, ctx);
    scenario::Execution &exec = builder.build();
    ASSERT_EQ(exec.intruders().size(), 1u);
    EXPECT_EQ(exec.intruders()[0]->buffer_bytes, 32ULL << 20);
}

}  // namespace
