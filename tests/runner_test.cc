/**
 * @file
 * Tests for the parallel experiment runner: the deterministic seed
 * chain, JSON formatting, CLI parsing, and the headline guarantee — a
 * parallel sweep emits byte-identical aggregated JSON to a serial one
 * with the same master seed, including on a real Table-3-style
 * detection sweep.
 */
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>

#include "anvil/anvil.hh"
#include "attack/hammer.hh"
#include "attack/memory_layout.hh"
#include "common/units.hh"
#include "mem/memory_system.hh"
#include "runner/json.hh"
#include "runner/options.hh"
#include "runner/result_sink.hh"
#include "runner/sweep.hh"
#include "runner/trial.hh"

namespace anvil {
namespace {

// ---------------------------------------------------------------------------
// Error + Watchdog
// ---------------------------------------------------------------------------

TEST(Error, RendersContextAndCauseDeterministically)
{
    Error e = Error("trial failed")
                  .with("scenario", std::string("alpha"))
                  .with("trial", std::uint64_t{3})
                  .with_hex("seed", 0xbeef)
                  .caused_by(std::runtime_error("boom"));
    EXPECT_STREQ(e.what(),
                 "trial failed [scenario=alpha, trial=3, seed=0xbeef]: "
                 "caused by: boom");
}

TEST(Error, NestedCausesFlattenIntoOneChain)
{
    const Error inner = Error("disk unhappy").with("path", std::string("x"));
    const Error outer = Error("report write failed").caused_by(inner);
    EXPECT_STREQ(outer.what(), "report write failed: caused by: "
                               "disk unhappy [path=x]");
}

TEST(Watchdog, UnarmedNeverFires)
{
    runner::Watchdog wd;
    EXPECT_FALSE(wd.armed());
    for (int i = 0; i < 1000; ++i)
        wd.tick();
    EXPECT_EQ(wd.used(), 0u);
}

TEST(Watchdog, FiresExactlyAtItsBudget)
{
    runner::Watchdog wd;
    wd.arm(10);
    EXPECT_TRUE(wd.armed());
    for (int i = 0; i < 9; ++i)
        wd.tick();
    EXPECT_EQ(wd.used(), 9u);
    EXPECT_THROW(wd.tick(), TimeoutError);
}

// ---------------------------------------------------------------------------
// Seed derivation
// ---------------------------------------------------------------------------

TEST(TrialSeed, IsDeterministic)
{
    EXPECT_EQ(runner::trial_seed(42, "scenario", 3),
              runner::trial_seed(42, "scenario", 3));
    EXPECT_EQ(runner::sub_seed(7, "vm"), runner::sub_seed(7, "vm"));
}

TEST(TrialSeed, SeparatesScenariosTrialsAndMasters)
{
    std::set<std::uint64_t> seeds;
    for (const char *scenario : {"a", "b", "ab"}) {
        for (std::uint64_t trial = 0; trial < 8; ++trial) {
            for (std::uint64_t master : {1ULL, 2ULL}) {
                seeds.insert(
                    runner::trial_seed(master, scenario, trial));
            }
        }
    }
    EXPECT_EQ(seeds.size(), 3u * 8u * 2u) << "seed collision";
}

TEST(TrialSeed, SubStreamsAreDecorrelated)
{
    const std::uint64_t seed = runner::trial_seed(1, "x", 0);
    EXPECT_NE(runner::sub_seed(seed, "vm"),
              runner::sub_seed(seed, "workload"));
    EXPECT_NE(runner::sub_seed(seed, "vm"), seed);
}

// ---------------------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------------------

TEST(JsonWriter, WritesNestedDocument)
{
    std::ostringstream os;
    runner::JsonWriter json(os);
    json.begin_object();
    json.field("name", "t\"est\n");
    json.field("count", std::uint64_t{3});
    json.field("ratio", 0.5);
    json.key("list").begin_array();
    json.value(std::uint64_t{1});
    json.value(std::uint64_t{2});
    json.end_array();
    json.end_object();

    EXPECT_EQ(os.str(), "{\n"
                        "  \"name\": \"t\\\"est\\n\",\n"
                        "  \"count\": 3,\n"
                        "  \"ratio\": 0.5,\n"
                        "  \"list\": [\n"
                        "    1,\n"
                        "    2\n"
                        "  ]\n"
                        "}\n");
}

TEST(JsonWriter, DoubleFormatIsStableAndRoundTrips)
{
    EXPECT_EQ(runner::JsonWriter::format_double(0.0), "0");
    EXPECT_EQ(runner::JsonWriter::format_double(42.0), "42");
    EXPECT_EQ(runner::JsonWriter::format_double(-3.0), "-3");
    // Non-integral values round-trip through %.17g.
    const double v = 1.0 / 3.0;
    EXPECT_EQ(std::stod(runner::JsonWriter::format_double(v)), v);
    EXPECT_EQ(runner::JsonWriter::format_double(
                  std::numeric_limits<double>::infinity()),
              "null");
}

// ---------------------------------------------------------------------------
// Sweep engine on synthetic trials
// ---------------------------------------------------------------------------

/** Cheap deterministic trial: metrics are pure functions of the seed. */
runner::TrialResult
synthetic_trial(const runner::TrialContext &ctx)
{
    runner::TrialResult r;
    r.set_value("seed_unit",
                static_cast<double>(ctx.seed() % 1000) / 1000.0);
    r.set_counter("seed_low", ctx.seed() % 17);
    return r;
}

runner::SweepOptions
synthetic_options(unsigned jobs)
{
    runner::SweepOptions opts;
    opts.name = "synthetic";
    opts.jobs = jobs;
    opts.master_seed = 99;
    return opts;
}

std::string
run_synthetic_json(unsigned jobs, std::uint64_t trials = 25)
{
    runner::Sweep sweep(synthetic_options(jobs));
    sweep.add_scenario("alpha", trials, synthetic_trial);
    sweep.add_scenario("beta", trials, synthetic_trial);
    const runner::SweepRun run = sweep.run();
    std::ostringstream os;
    run.sink.write_json(os);
    return os.str();
}

TEST(Sweep, ParallelJsonIsByteIdenticalToSerial)
{
    const std::string serial = run_synthetic_json(1);
    const std::string parallel = run_synthetic_json(8);
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find("\"schema\": \"anvil-sweep-v1\""),
              std::string::npos);
    // More workers than trials: the surplus is never started.
    EXPECT_EQ(run_synthetic_json(16, 3), run_synthetic_json(1, 3));
}

TEST(Sweep, ReplaySelectsExactlyOneTrial)
{
    runner::SweepOptions opts = synthetic_options(1);
    // Global indices: alpha = 0..24, beta = 25..49.
    opts.replay_trial = 26;
    runner::Sweep sweep(opts);
    sweep.add_scenario("alpha", 25, synthetic_trial);
    sweep.add_scenario("beta", 25, synthetic_trial);
    const runner::SweepRun run = sweep.run();
    const runner::ResultSink &sink = run.sink;

    ASSERT_EQ(sink.total_trials(), 1u);
    const runner::ScenarioAggregate *beta = sink.find("beta");
    ASSERT_NE(beta, nullptr);
    EXPECT_EQ(sink.find("alpha"), nullptr);
    // The replayed trial must see the identical derived seed.
    const std::uint64_t seed = runner::trial_seed(99, "beta", 1);
    EXPECT_EQ(beta->counter_sum("seed_low"), seed % 17);

    // Past the end of the plan: a configuration error naming the index
    // and the plan size, before any trial runs.
    for (const std::uint64_t past : {std::uint64_t{50}, UINT64_MAX}) {
        opts.replay_trial = past;
        runner::Sweep out_of_range(opts);
        int runs = 0;
        const auto counted = [&](const runner::TrialContext &ctx) {
            ++runs;
            return synthetic_trial(ctx);
        };
        out_of_range.add_scenario("alpha", 25, counted);
        out_of_range.add_scenario("beta", 25, counted);
        try {
            (void)out_of_range.run();
            ADD_FAILURE() << "--replay-trial " << past << " was accepted";
        } catch (const Error &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("replay_trial=" + std::to_string(past)),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find("trials=50"), std::string::npos) << what;
        }
        EXPECT_EQ(runs, 0);
    }
}

TEST(Sweep, TrialExceptionBecomesErrorNotCrash)
{
    runner::Sweep sweep(synthetic_options(2));
    sweep.add_scenario("flaky", 4, [](const runner::TrialContext &ctx) {
        if (ctx.spec().trial == 2)
            throw std::runtime_error("boom");
        return synthetic_trial(ctx);
    });
    const runner::SweepRun run = sweep.run();
    const runner::ResultSink &sink = run.sink;
    const runner::ScenarioAggregate *agg = sink.find("flaky");
    ASSERT_NE(agg, nullptr);
    EXPECT_EQ(agg->trials(), 4u);
    EXPECT_EQ(agg->errors(), 1u);
    EXPECT_EQ(sink.total_errors(), 1u);
    EXPECT_EQ(run.failed, 1u);
    EXPECT_EQ(run.completed, 3u);
    // The failure is a record, not just a counter: scenario, cause, and
    // the trial's own seed all land in the rendered error.
    ASSERT_EQ(agg->failures().size(), 1u);
    const runner::TrialFailure &failure = agg->failures().front();
    EXPECT_EQ(failure.trial, 2u);
    EXPECT_EQ(failure.status, runner::TrialStatus::kFailed);
    EXPECT_NE(failure.error.find("boom"), std::string::npos);
    EXPECT_NE(failure.error.find("scenario=flaky"), std::string::npos);
    // Only the three healthy trials contribute observations.
    ASSERT_NE(agg->value_stat("seed_unit"), nullptr);
    EXPECT_EQ(agg->value_stat("seed_unit")->count(), 3u);

    // The failure is a first-class JSON record beside its siblings.
    std::ostringstream os;
    sink.write_json(os);
    EXPECT_NE(os.str().find("\"failures\""), std::string::npos);
    EXPECT_NE(os.str().find("\"status\": \"failed\""), std::string::npos);
}

/** A trial with two stat blocks whose fields derive from the trial. */
runner::TrialResult
block_trial(const runner::TrialContext &ctx)
{
    const std::uint64_t t = ctx.spec().trial;
    runner::TrialResult r;
    if (t == 1)
        throw std::runtime_error("no blocks from a failed trial");
    r.set_block("machine", {{"zeta", t + 1}, {"alpha", 10 * (t + 1)}});
    // A later trial may add a field; it follows the fields seen before.
    runner::StatFields detector = {{"windows", t}};
    if (t == 2)
        detector.emplace_back("late", 7);
    r.set_block("detector", std::move(detector));
    return r;
}

TEST(StatBlock, FieldsSumOverOkTrialsOnly)
{
    runner::Sweep sweep(synthetic_options(1));
    sweep.add_scenario("alpha", 3, block_trial);
    const runner::SweepRun run = sweep.run();
    const runner::ScenarioAggregate *agg = run.sink.find("alpha");
    ASSERT_NE(agg, nullptr);
    EXPECT_EQ(agg->errors(), 1u);
    // Trials 0 and 2 are ok; trial 1 failed and contributes nothing.
    const runner::StatBlock *machine = agg->block("machine");
    ASSERT_NE(machine, nullptr);
    const runner::StatFields want_machine = {{"zeta", 1 + 3},
                                             {"alpha", 10 + 30}};
    EXPECT_EQ(machine->fields, want_machine);
    const runner::StatBlock *detector = agg->block("detector");
    ASSERT_NE(detector, nullptr);
    const runner::StatFields want_detector = {{"windows", 0 + 2},
                                              {"late", 7}};
    EXPECT_EQ(detector->fields, want_detector);
    EXPECT_EQ(agg->block("dram"), nullptr);
}

TEST(StatBlock, JsonKeepsFirstSeenOrder)
{
    runner::Sweep sweep(synthetic_options(1));
    sweep.add_scenario("alpha", 3, block_trial);
    std::ostringstream os;
    sweep.run().sink.write_json(os);
    const std::string json = os.str();
    // Blocks follow the counters in the order trials first set them,
    // and each block's keys keep their field order, not a sorted one.
    const std::size_t counters = json.find("\"counters\"");
    const std::size_t machine = json.find("\"machine\": {");
    const std::size_t zeta = json.find("\"zeta\": 4");
    const std::size_t alpha = json.find("\"alpha\": 40");
    const std::size_t detector = json.find("\"detector\": {");
    const std::size_t windows = json.find("\"windows\": 2");
    const std::size_t late = json.find("\"late\": 7");
    ASSERT_NE(late, std::string::npos) << json;
    EXPECT_LT(counters, machine) << json;
    EXPECT_LT(machine, zeta) << json;
    EXPECT_LT(zeta, alpha) << json;
    EXPECT_LT(alpha, detector) << json;
    EXPECT_LT(detector, windows) << json;
    EXPECT_LT(windows, late) << json;
}

TEST(StatBlock, SettingANameTwiceReplacesTheBlock)
{
    runner::TrialResult r;
    r.set_block("anvil", {{"detections", 1}, {"stage1_windows", 2}});
    r.set_block("dram", {{"accesses", 3}});
    r.set_block("anvil", {{"detections", 5}});
    ASSERT_EQ(r.blocks().size(), 2u);
    EXPECT_EQ(r.blocks()[0].name, "anvil");
    const runner::StatFields want = {{"detections", 5}};
    EXPECT_EQ(r.blocks()[0].fields, want);
    EXPECT_EQ(r.blocks()[1].name, "dram");
}

TEST(Sweep, DerivedValuesAppearInJson)
{
    runner::Sweep sweep(synthetic_options(1));
    sweep.add_scenario("alpha", 2, synthetic_trial);
    runner::SweepRun run = sweep.run();
    runner::ScenarioAggregate *alpha = run.sink.find("alpha");
    ASSERT_NE(alpha, nullptr);
    const double twice_mean = 2.0 * alpha->value_mean("seed_unit");
    alpha->set_derived("twice_mean", twice_mean);
    EXPECT_EQ(alpha->derived("twice_mean"), twice_mean);
    EXPECT_EQ(alpha->derived("missing", -1.0), -1.0);
    std::ostringstream os;
    run.sink.write_json(os);
    EXPECT_NE(os.str().find("\"twice_mean\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// CLI parsing
// ---------------------------------------------------------------------------

TEST(CliOptions, ParsesRunnerFlagsAndPositionals)
{
    const char *argv[] = {"bench",          "--jobs",   "4",
                          "--master-seed",  "0x10",     "--trials=9",
                          "--json-out",     "out.json", "--replay-trial",
                          "7",              "2.5"};
    runner::CliOptions opts = runner::CliOptions::parse(
        static_cast<int>(std::size(argv)), const_cast<char **>(argv));
    EXPECT_EQ(opts.sweep.jobs, 4u);
    EXPECT_EQ(opts.sweep.master_seed, 0x10u);
    EXPECT_EQ(opts.trials, 9u);
    EXPECT_EQ(opts.trials_or(6), 9u);
    EXPECT_EQ(opts.sweep.json_out, "out.json");
    ASSERT_TRUE(opts.sweep.replay_trial.has_value());
    EXPECT_EQ(*opts.sweep.replay_trial, 7u);
    ASSERT_EQ(opts.positional.size(), 1u);
    EXPECT_DOUBLE_EQ(opts.positional_double(0, 3.0), 2.5);
    EXPECT_DOUBLE_EQ(opts.positional_double(1, 3.0), 3.0);

    // A sweep argument must be wholly a finite number > 0: anything
    // else would run a silently wrong (nan rates) or endless sweep.
    for (const char *bad : {"abc", "1e3x", "-1", "0", "nan", "inf"}) {
        opts.positional = {bad};
        try {
            opts.positional_double(0, 3.0);
            ADD_FAILURE() << "accepted sweep argument '" << bad << "'";
        } catch (const Error &e) {
            EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find("argument=0"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(CliOptions, ParsesFaultToleranceFlags)
{
    const char *argv[] = {"bench", "--trial-timeout=5000", "--json-out",
                          "out.json"};
    runner::CliOptions opts = runner::CliOptions::parse(
        static_cast<int>(std::size(argv)), const_cast<char **>(argv));
    EXPECT_EQ(opts.sweep.trial_timeout, 5000u);

    // An interrupted sweep is rerun, not resumed: the flag is unknown.
    const char *resume[] = {"bench", "--json-out", "out.json", "--resume"};
    EXPECT_EXIT(runner::CliOptions::parse(
                    static_cast<int>(std::size(resume)),
                    const_cast<char **>(resume)),
                ::testing::ExitedWithCode(2), "unknown flag --resume");

    // Faults are not injected: a trial fails or times out for real.
    const char *inject[] = {"bench", "--inject-fault", "throw@x:0"};
    EXPECT_EXIT(runner::CliOptions::parse(
                    static_cast<int>(std::size(inject)),
                    const_cast<char **>(inject)),
                ::testing::ExitedWithCode(2), "unknown flag --inject-fault");
}

TEST(CliOptions, RejectsAJobCountThatDoesNotFitUnsigned)
{
    // A cast would wrap 2^32 + 1 to 1 job and 2^32 to 0 (every core).
    for (const char *jobs : {"4294967297", "4294967296"}) {
        const char *argv[] = {"bench", "--jobs", jobs};
        EXPECT_EXIT(runner::CliOptions::parse(
                        static_cast<int>(std::size(argv)),
                        const_cast<char **>(argv)),
                    ::testing::ExitedWithCode(2), "bad value for --jobs")
            << jobs;
    }
    // Past 2^64 - 1 strtoull clamps, and a sign wraps modulo 2^64:
    // either would run silently with another number than was given.
    const std::pair<const char *, const char *> bad[] = {
        {"--master-seed", "99999999999999999999"},
        {"--master-seed", "0x10000000000000000"},
        {"--trials", "-1"},
        {"--trials", "+3"},
        {"--trials", " 3"},
        {"--replay-trial", "-0"},
        {"--trial-timeout", "18446744073709551616"},
        {"--jobs", "-1"},
    };
    for (const auto &[flag, value] : bad) {
        const char *argv[] = {"bench", flag, value};
        EXPECT_EXIT(runner::CliOptions::parse(
                        static_cast<int>(std::size(argv)),
                        const_cast<char **>(argv)),
                    ::testing::ExitedWithCode(2),
                    std::string("bad value for ") + flag)
            << flag << " " << value;
    }
    const char *max_seed[] = {"bench", "--master-seed",
                              "18446744073709551615"};
    EXPECT_EQ(runner::CliOptions::parse(
                  static_cast<int>(std::size(max_seed)),
                  const_cast<char **>(max_seed))
                  .sweep.master_seed,
              UINT64_MAX);
    const char *argv[] = {"bench", "--jobs", "4294967295"};
    EXPECT_EQ(runner::CliOptions::parse(static_cast<int>(std::size(argv)),
                                        const_cast<char **>(argv))
                  .sweep.jobs,
              4294967295u);
}

TEST(CliOptions, DefaultsLeaveBenchDefaultsAlone)
{
    const char *argv[] = {"bench"};
    runner::CliOptions opts =
        runner::CliOptions::parse(1, const_cast<char **>(argv));
    EXPECT_EQ(opts.trials_or(6), 6u);
    EXPECT_FALSE(opts.sweep.replay_trial.has_value());
    EXPECT_TRUE(opts.sweep.json_out.empty());
}

// ---------------------------------------------------------------------------
// End-to-end: a Table-3-style detection sweep, parallel vs serial
// ---------------------------------------------------------------------------

/**
 * A shortened Table-3 trial: fresh machine, CLFLUSH double-sided attack
 * under ANVIL-baseline for 20 ms. Heavy enough to exercise the whole
 * stack (VM, caches, DRAM disturbance, detector, per-trial seeds), short
 * enough for CI.
 */
runner::TrialResult
detection_trial(const runner::TrialContext &ctx)
{
    mem::SystemConfig config;
    config.vm_seed = ctx.seed_for("vm");
    mem::MemorySystem machine(config);

    mem::AddressSpace &attacker = machine.create_process();
    const std::uint64_t buffer_bytes = 16ULL << 20;
    const Addr buffer = attacker.mmap(buffer_bytes);
    attack::MemoryLayout layout(attacker, machine.dram().address_map(),
                                machine.hierarchy());
    layout.scan(buffer, buffer_bytes);
    const auto targets = layout.find_double_sided_targets(4);
    if (targets.empty())
        throw std::runtime_error("no double-sided target");

    detector::Anvil anvil(machine, machine.pmu(),
                          detector::AnvilConfig::baseline());
    anvil.set_ground_truth([] { return true; });
    anvil.start();

    // Attack begins at a seed-dependent window phase.
    machine.advance(us(100) + ctx.seed_for("phase") % us(5000));

    attack::ClflushDoubleSided hammer(machine, attacker.pid(),
                                      targets.front());
    const Tick start = machine.now();
    while (machine.now() < start + ms(20))
        hammer.step();

    runner::TrialResult r;
    r.set_counter("flips", machine.dram().flips().size());
    r.set_counter("detections", anvil.stats().detections);
    r.set_value("attack_ms", to_ms(machine.now() - start));
    if (!anvil.detections().empty()) {
        r.set_value("detect_ms",
                    to_ms(anvil.detections().front().time - start));
    }
    r.set_block("anvil", {{"stage1_windows", anvil.stats().stage1_windows},
                          {"detections", anvil.stats().detections}});
    r.set_block("dram", {{"accesses", machine.dram().stats().accesses}});
    return r;
}

std::string
run_detection_sweep_json(unsigned jobs)
{
    runner::SweepOptions opts;
    opts.name = "table3_style";
    opts.jobs = jobs;
    opts.master_seed = 0x5eed;
    runner::Sweep sweep(opts);
    sweep.add_scenario("clflush/phase-a", 2, detection_trial);
    sweep.add_scenario("clflush/phase-b", 2, detection_trial);
    const runner::SweepRun run = sweep.run();
    std::ostringstream os;
    run.sink.write_json(os);
    return os.str();
}

TEST(SweepEndToEnd, DetectionSweepParallelMatchesSerialByteForByte)
{
    const std::string serial = run_detection_sweep_json(1);
    const std::string parallel = run_detection_sweep_json(4);
    EXPECT_EQ(serial, parallel);
    // The sweep actually detected the attacks (sanity that the trials
    // are real, not vacuous).
    EXPECT_NE(serial.find("\"detections\""), std::string::npos);
}

}  // namespace
}  // namespace anvil
