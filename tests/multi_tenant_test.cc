/**
 * @file
 * Tests of the multi-tenant process model: tenant labels, the
 * round-robin TenantScheduler (quantum slicing), bit-exact determinism
 * of multi-tenant trials, per-tenant seed isolation, and the
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
    spec.tenants = {
        scenario::attacker_tenant(),
        scenario::workload_tenant({"mcf", "", false}),
        scenario::workload_tenant({"mcf", "", false}),
        scenario::workload_tenant({"gcc", "w:gcc", false}),
        scenario::attacker_tenant(),
    };

    EXPECT_EQ(scenario::tenant_labels(spec),
              (std::vector<std::string>{"attacker", "mcf", "mcf#2", "gcc",
                                        "attacker#2"}));
}

/**
 * A two-process rig: each step of the hammer tenant completes two loads
 * (its CLFLUSHes are no completed access) and each workload step one,
 * and an observer records the pid order, so the scheduler's interleave
 * is directly visible.
 */
TEST(TenantScheduler, QuantumIsGrantedInCompletedAccesses)
{
    mem::MemorySystem machine{mem::SystemConfig{}};
    mem::AddressSpace &a = machine.create_process();
    const Addr va_a = a.mmap(1 << 20);
    attack::DoubleSidedTarget target;
    target.low_aggressor_va = va_a;
    target.high_aggressor_va = va_a + (1 << 19);
    attack::ClflushDoubleSided hammer(machine, a.pid(), target);
    workload::Workload load(machine, workload::spec_profile("sjeng"));
    const mem::AddressSpace &b = machine.process(load.pid());

    std::vector<Pid> order;
    machine.add_observer(
        [&order](const mem::AccessInfo &info) { order.push_back(info.pid); });

    scenario::TenantScheduler sched(machine);
    sched.add({&hammer, 3});
    sched.add({&load, 1});
    sched.run_until(machine.now() + ms(1));

    ASSERT_GE(order.size(), 10u);
    // A quantum of 3 at 2 accesses per step takes two hammer steps: the
    // round pattern is AAAAB AAAAB ...
    for (std::size_t i = 0; i + 5 <= 10; i += 5) {
        for (std::size_t j = 0; j < 4; ++j)
            EXPECT_EQ(order[i + j], a.pid());
        EXPECT_EQ(order[i + 4], b.pid());
    }

    // Per-space attribution matches the observed order, and the
    // deadline cuts the last round short: a ran 4 accesses per turn of b.
    EXPECT_EQ(a.accesses(),
              static_cast<std::uint64_t>(
                  std::count(order.begin(), order.end(), a.pid())));
    EXPECT_EQ(a.accesses() + b.accesses(), order.size());
    EXPECT_GE(a.accesses(), 4 * b.accesses());
    EXPECT_LE(a.accesses(), 4 * b.accesses() + 4);
}

TEST(TenantScheduler, RunUntilOvershootsByAtMostOneStep)
{
    // The deadline is checked before every step, so the clock passes it
    // by no more than the one step that crossed it.
    mem::MemorySystem machine{mem::SystemConfig{}};
    workload::Workload load(machine, workload::spec_profile("sjeng"));
    scenario::TenantScheduler sched(machine);
    sched.add({&load});
    sched.run_until(ms(3));
    EXPECT_GE(machine.now(), ms(3));
    EXPECT_LT(machine.now(), ms(3) + us(10));
}

/**
 * A lone tenant runs in a plain loop. At any quantum it must take
 * exactly the steps, and stop at exactly the clock, of the round-robin
 * quantum loop it replaces, the step that overshoots the deadline
 * included.
 */
TEST(TenantScheduler, LoneTenantStepsAsTheRoundRobinLoopDoes)
{
    for (const std::uint64_t quantum : {1u, 7u}) {
        SCOPED_TRACE(testing::Message() << "quantum " << quantum);
        struct Outcome {
            std::uint64_t steps = 0;
            Tick end = 0;
            Tick deadline = 0;
        };
        const auto run = [quantum](bool reference) {
            mem::MemorySystem machine{mem::SystemConfig{}};
            workload::Workload load(machine,
                                    workload::spec_profile("mcf"));
            Outcome out;
            out.deadline = machine.now() + ms(1);
            if (reference) {
                // Round-robin over a one-tenant list: quanta counted in
                // completed accesses, the deadline checked before every
                // step.
                const mem::AddressSpace &space = machine.process(load.pid());
                while (machine.now() < out.deadline) {
                    std::uint64_t consumed = 0;
                    while (consumed < quantum &&
                           machine.now() < out.deadline) {
                        const std::uint64_t before = space.accesses();
                        load.step();
                        consumed += std::max<std::uint64_t>(
                            1, space.accesses() - before);
                    }
                }
            } else {
                scenario::TenantScheduler sched(machine);
                sched.add({&load, quantum});
                sched.run_until(out.deadline);
            }
            out.steps = load.ops();
            out.end = machine.now();
            return out;
        };
        const Outcome plain = run(false);
        const Outcome reference = run(true);
        EXPECT_EQ(plain.steps, reference.steps);
        EXPECT_EQ(plain.end, reference.end);
        EXPECT_GT(plain.end, plain.deadline) << "no step overshot";
        EXPECT_GT(plain.steps, quantum);
    }
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
    ASSERT_EQ(exec.attacks().size(), 1u);
    const Pid attacker_pid = exec.attacks()[0].attacker->pid();
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

    // Every attacker maps kDefaultAttackBufferBytes; on a 128 MB module
    // the huge-page pool (half of physical capacity) holds one buffer.
    spec.system.dram.rows_per_bank = 1024;
    ASSERT_EQ(spec.system.dram.capacity_bytes() / 2,
              scenario::kDefaultAttackBufferBytes);
    const scenario::TenantSpec t = scenario::attacker_tenant();
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

}  // namespace
