/**
 * @file
 * Tests of the sweep engine's fault paths, driven by deterministic fault
 * injection (runner/fault.hh): error boundaries, retries with re-derived
 * seeds, watchdog timeouts, the crash-safe journal (round-trip, torn-tail
 * recovery, foreign-file rejection), and the headline recovery guarantee —
 * a sweep drained mid-run and finished with --resume writes final JSON
 * byte-identical to an uninterrupted run.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "runner/fault.hh"
#include "runner/journal.hh"
#include "runner/result_sink.hh"
#include "runner/sweep.hh"
#include "runner/trial.hh"

namespace anvil {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/** A cheap, fully deterministic trial body: results derive from the seed. */
runner::TrialResult
synthetic_result(const runner::TrialContext &ctx)
{
    runner::TrialResult r;
    const std::uint64_t s = ctx.seed_for("unit");
    r.set_value("metric", static_cast<double>(s % 1000) / 7.0);
    r.set_counter("events", s % 17);
    return r;
}

runner::SweepOptions
base_options()
{
    runner::SweepOptions o;
    o.name = "synthetic";
    o.jobs = 1;
    o.master_seed = 0x5eedULL;
    return o;
}

/** Runs a 1-scenario/3-trial synthetic sweep with @p options. */
runner::SweepRun
run_synthetic(runner::SweepOptions options)
{
    runner::Sweep sweep(std::move(options));
    sweep.add_scenario("alpha", 3, synthetic_result);
    return sweep.run();
}

std::string
json_of(const runner::SweepRun &run)
{
    std::ostringstream os;
    run.sink.write_json(os);
    return os.str();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot read " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

bool
file_exists(const std::string &path)
{
    return std::ifstream(path).good();
}

/** A per-test scratch path, cleared of leftovers from earlier runs. */
std::string
temp_path(const std::string &name)
{
    const std::string path =
        ::testing::TempDir() + "anvil_fault_test_" + name;
    std::remove(path.c_str());
    std::remove(runner::journal_path(path, 0, 1).c_str());
    return path;
}

/** Tests that touch the process-wide drain flag must leave it cleared. */
struct ShutdownGuard {
    ShutdownGuard() { runner::clear_shutdown(); }
    ~ShutdownGuard() { runner::clear_shutdown(); }
};

// ---------------------------------------------------------------------------
// Fault-spec parsing and matching
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParsesKindScenarioAndTrial)
{
    const runner::FaultSpec f = runner::parse_fault("throw@alpha:3");
    EXPECT_EQ(f.kind, runner::FaultKind::kThrow);
    EXPECT_EQ(f.scenario, "alpha");
    EXPECT_EQ(f.trial, 3u);

    // The trial index follows the LAST ':', so scenario names may
    // themselves contain colons (e.g. "mcf/anvil:heavy").
    const runner::FaultSpec g = runner::parse_fault("hang@a:b:2");
    EXPECT_EQ(g.kind, runner::FaultKind::kHang);
    EXPECT_EQ(g.scenario, "a:b");
    EXPECT_EQ(g.trial, 2u);
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(runner::parse_fault("throw"), Error);
    EXPECT_THROW(runner::parse_fault("nope@x"), Error);
    EXPECT_THROW(runner::parse_fault("throw@x:notanumber"), Error);
    EXPECT_THROW(runner::parse_fault("bogus@x:1"), Error);
    EXPECT_THROW(runner::parse_fault("throw@x:"), Error);
}

TEST(FaultSpec, PlanMatchesExactCoordinatesOnly)
{
    const runner::FaultPlan plan(
        {runner::parse_fault("throw@alpha:1")});
    runner::TrialSpec spec;
    spec.scenario = "alpha";
    spec.trial = 1;
    EXPECT_NE(plan.match(spec), nullptr);
    spec.trial = 2;
    EXPECT_EQ(plan.match(spec), nullptr);
    spec.scenario = "beta";
    spec.trial = 1;
    EXPECT_EQ(plan.match(spec), nullptr);
    EXPECT_TRUE(runner::FaultPlan().empty());
}

// ---------------------------------------------------------------------------
// Injected faults become structured outcomes
// ---------------------------------------------------------------------------

TEST(FaultInjection, ThrowBecomesFailedOutcomeNotCrash)
{
    runner::SweepOptions options = base_options();
    options.faults = {runner::parse_fault("throw@alpha:1")};
    const runner::SweepRun run = run_synthetic(std::move(options));

    EXPECT_EQ(run.completed, 2u);
    EXPECT_EQ(run.failed, 1u);
    ASSERT_EQ(run.outcomes.size(), 3u);
    EXPECT_EQ(run.outcomes[1].status, runner::TrialStatus::kFailed);
    EXPECT_NE(run.outcomes[1].error.find("injected fault"),
              std::string::npos)
        << run.outcomes[1].error;
    EXPECT_NE(run.outcomes[1].error.find("scenario=alpha"),
              std::string::npos)
        << "the error must carry the trial's identity: "
        << run.outcomes[1].error;

    // The failure is a first-class JSON record, siblings are unaffected.
    const std::string json = json_of(run);
    EXPECT_NE(json.find("\"failures\""), std::string::npos);
    EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
}

TEST(FaultInjection, RetriedFlakeIsByteIdenticalToCleanRun)
{
    const std::string clean = json_of(run_synthetic(base_options()));

    runner::SweepOptions options = base_options();
    options.faults = {runner::parse_fault("flaky@alpha:1")};
    options.retries = 1;
    const runner::SweepRun run = run_synthetic(std::move(options));

    EXPECT_EQ(run.completed, 3u);
    EXPECT_EQ(run.failed, 0u);
    ASSERT_EQ(run.outcomes.size(), 3u);
    EXPECT_EQ(run.outcomes[1].status, runner::TrialStatus::kOk);
    EXPECT_EQ(run.outcomes[1].attempts, 2u);
    // The retry re-derives the identical seed, so a flaky-infra retry
    // cannot change results: the report is byte-identical.
    EXPECT_EQ(json_of(run), clean);
}

TEST(FaultInjection, FlakeWithoutRetriesFails)
{
    runner::SweepOptions options = base_options();
    options.faults = {runner::parse_fault("flaky@alpha:1")};
    const runner::SweepRun run = run_synthetic(std::move(options));
    EXPECT_EQ(run.failed, 1u);
    EXPECT_EQ(run.outcomes[1].status, runner::TrialStatus::kFailed);
}

TEST(FaultInjection, HangIsBoundedByTheWatchdogAndNeverRetried)
{
    runner::SweepOptions options = base_options();
    options.faults = {runner::parse_fault("hang@alpha:0")};
    options.trial_timeout = 1000;
    options.retries = 3;  // timeouts are deterministic: retrying is futile
    const runner::SweepRun run = run_synthetic(std::move(options));

    ASSERT_EQ(run.outcomes.size(), 3u);
    EXPECT_EQ(run.outcomes[0].status, runner::TrialStatus::kTimedOut);
    EXPECT_EQ(run.outcomes[0].attempts, 1u);
    EXPECT_NE(run.outcomes[0].error.find("budget"), std::string::npos)
        << run.outcomes[0].error;
    EXPECT_EQ(run.completed, 2u);
    EXPECT_EQ(run.failed, 1u);

    const std::string json = json_of(run);
    EXPECT_NE(json.find("\"status\": \"timed_out\""), std::string::npos);
}

TEST(FaultInjection, HangWithoutTimeoutFailsWithGuidance)
{
    runner::SweepOptions options = base_options();
    options.faults = {runner::parse_fault("hang@alpha:0")};
    const runner::SweepRun run = run_synthetic(std::move(options));
    ASSERT_EQ(run.outcomes.size(), 3u);
    EXPECT_EQ(run.outcomes[0].status, runner::TrialStatus::kFailed);
    EXPECT_NE(run.outcomes[0].error.find("--trial-timeout"),
              std::string::npos)
        << run.outcomes[0].error;
}

TEST(FaultInjection, CorruptionIsSilentDeterministicAndSeedDerived)
{
    const std::string clean = json_of(run_synthetic(base_options()));

    runner::SweepOptions options = base_options();
    options.faults = {runner::parse_fault("corrupt@alpha:1")};
    const runner::SweepRun first = run_synthetic(options);
    const runner::SweepRun second = run_synthetic(options);

    // Silent: the trial still reports ok...
    EXPECT_EQ(first.failed, 0u);
    EXPECT_EQ(first.outcomes[1].status, runner::TrialStatus::kOk);
    // ...corrupted: the report differs from a clean run...
    EXPECT_NE(json_of(first), clean);
    // ...deterministic: the perturbation replays exactly.
    EXPECT_EQ(json_of(first), json_of(second));
}

TEST(FaultInjection, TimeoutFromTheTrialBodyIsRecorded)
{
    runner::SweepOptions options = base_options();
    options.trial_timeout = 100;
    options.retries = 2;
    runner::Sweep sweep(std::move(options));
    sweep.add_scenario("ticking", 1, [](const runner::TrialContext &ctx) {
        for (int i = 0; i < 10000; ++i)
            ctx.watchdog().tick();
        return runner::TrialResult{};
    });
    const runner::SweepRun run = sweep.run();
    ASSERT_EQ(run.outcomes.size(), 1u);
    EXPECT_EQ(run.outcomes[0].status, runner::TrialStatus::kTimedOut);
    EXPECT_EQ(run.outcomes[0].attempts, 1u);
}

// ---------------------------------------------------------------------------
// Journal: round-trip, recovery, rejection
// ---------------------------------------------------------------------------

/** The plan of the 2-scenario x 3-trial sweep named @p sweep. */
std::vector<runner::TrialSpec>
plan_of(const std::string &sweep, std::uint64_t master_seed)
{
    runner::SweepOptions options = base_options();
    options.name = sweep;
    options.master_seed = master_seed;
    runner::Sweep s(options);
    s.add_scenario("alpha", 3, synthetic_result);
    s.add_scenario("beta", 3, synthetic_result);
    return s.plan_specs();
}

/** The header of a plain run's journal of @p sweep: shard 0 of 1. */
runner::JournalHeader
plain_header(const std::string &sweep, std::uint64_t master_seed)
{
    return {sweep, master_seed,
            runner::plan_hash(plan_of(sweep, master_seed)), 0, 1};
}

TEST(Journal, RoundTripsEveryFieldBitExactly)
{
    const std::string path = temp_path("roundtrip.journal");
    const auto plan = plan_of("synthetic", 0x5eedULL);
    const runner::JournalHeader header = plain_header("synthetic", 0x5eedULL);

    const runner::TrialSpec &spec = plan[2];  // alpha, trial 2
    runner::TrialOutcome out;
    out.status = runner::TrialStatus::kFailed;
    out.error = "trial failed [scenario=alpha]: caused by: boom";
    out.attempts = 3;
    out.result.set_value("mean_ms", 1.0 / 3.0);  // not exactly printable
    out.result.set_value("neg_zero", -0.0);
    out.result.set_counter("flips", 0xdeadbeefcafeULL);
    detector::AnvilStats anvil{};
    anvil.stage1_windows = 11;
    anvil.stage1_triggers = 22;
    anvil.stage2_windows = 33;
    anvil.detections = 44;
    anvil.selective_refreshes = 55;
    anvil.false_positive_detections = 66;
    anvil.false_positive_refreshes = 77;
    anvil.overhead = 88;
    out.result.set_anvil(anvil);
    dram::DramSystem::Stats dram{};
    dram.accesses = 101;
    dram.row_hits = 102;
    dram.row_misses = 103;
    dram.selective_refreshes = 104;
    dram.refresh_stall = 105;
    out.result.set_dram(dram);

    {
        runner::JournalWriter writer;
        writer.open(path, header, /*append=*/false);
        ASSERT_TRUE(writer.is_open());
        writer.append(spec, out);
        // A second, minimal record: ok status, no stat blocks.
        runner::TrialOutcome ok;
        ok.result.set_counter("events", 9);
        writer.append(plan[3], ok);  // beta, trial 0
    }

    const std::vector<runner::JournalRecord> records =
        runner::read_journal(path, header, plan);
    ASSERT_EQ(records.size(), 2u);

    const runner::JournalRecord &rec = records[0];
    EXPECT_EQ(rec.spec.scenario, "alpha");
    EXPECT_EQ(rec.spec.trial, 2u);
    EXPECT_EQ(rec.spec.seed, spec.seed);
    EXPECT_EQ(rec.spec.global_index, 2u);
    EXPECT_EQ(rec.outcome.status, runner::TrialStatus::kFailed);
    EXPECT_EQ(rec.outcome.error, out.error);
    EXPECT_EQ(rec.outcome.attempts, 3u);
    ASSERT_EQ(rec.outcome.result.values().size(), 2u);
    EXPECT_EQ(rec.outcome.result.values()[0].first, "mean_ms");
    EXPECT_EQ(rec.outcome.result.values()[0].second, 1.0 / 3.0);
    EXPECT_TRUE(std::signbit(rec.outcome.result.values()[1].second));
    ASSERT_EQ(rec.outcome.result.counters().size(), 1u);
    EXPECT_EQ(rec.outcome.result.counters()[0].second,
              0xdeadbeefcafeULL);
    ASSERT_TRUE(rec.outcome.result.has_anvil());
    EXPECT_EQ(rec.outcome.result.anvil().false_positive_refreshes, 77u);
    EXPECT_EQ(rec.outcome.result.anvil().overhead, 88u);
    ASSERT_TRUE(rec.outcome.result.has_dram());
    EXPECT_EQ(rec.outcome.result.dram().refresh_stall, 105u);

    EXPECT_EQ(records[1].spec.scenario, "beta");
    EXPECT_FALSE(records[1].outcome.result.has_anvil());
    EXPECT_FALSE(records[1].outcome.result.has_dram());
}

TEST(Journal, TornTrailingRecordIsTruncatedAway)
{
    const std::string path = temp_path("torn.journal");
    const auto plan = plan_of("synthetic", 1);
    const runner::JournalHeader header = plain_header("synthetic", 1);
    {
        runner::JournalWriter writer;
        writer.open(path, header, /*append=*/false);
        runner::TrialOutcome ok;
        ok.result.set_counter("events", 1);
        writer.append(plan[0], ok);
        writer.append(plan[1], ok);
    }
    // Emulate a crash mid-append: a length prefix promising 48 bytes,
    // followed by only a few.
    {
        std::ofstream app(path, std::ios::binary | std::ios::app);
        const char torn[] = {48, 0, 0, 0, 'x', 'y', 'z'};
        app.write(torn, sizeof torn);
    }

    const std::vector<runner::JournalRecord> recovered =
        runner::read_journal(path, header, plan);
    ASSERT_EQ(recovered.size(), 2u);
    EXPECT_EQ(recovered[1].spec.trial, 1u);

    // Recovery truncated the file: a second read sees a clean journal.
    const std::vector<runner::JournalRecord> again =
        runner::read_journal(path, header, plan);
    EXPECT_EQ(again.size(), 2u);
}

TEST(Journal, RejectsForeignFilesAndMismatchedSweeps)
{
    const auto plan = plan_of("synthetic", 1);
    const std::string missing = temp_path("never_written.journal");
    EXPECT_TRUE(runner::read_journal(missing, plain_header("synthetic", 1),
                                     plan)
                    .empty());

    const std::string garbage = temp_path("garbage.journal");
    {
        std::ofstream out(garbage, std::ios::binary);
        out << "this is not a journal";
    }
    EXPECT_THROW(runner::read_journal(garbage,
                                      plain_header("synthetic", 1), plan),
                 Error);

    const std::string other = temp_path("other_sweep.journal");
    {
        runner::JournalWriter writer;
        writer.open(other, plain_header("sweep_a", 1), /*append=*/false);
    }
    // Different name or master seed: refuse, with guidance.
    try {
        runner::read_journal(other, plain_header("sweep_b", 1),
                             plan_of("sweep_b", 1));
        FAIL() << "foreign journal accepted";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("different sweep"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(runner::read_journal(other, plain_header("sweep_a", 2),
                                      plan_of("sweep_a", 2)),
                 Error);

    // The append-side re-check refuses the same mismatch.
    runner::JournalWriter writer;
    EXPECT_THROW(
        writer.open(other, plain_header("sweep_b", 1), /*append=*/true),
        Error);
}

// ---------------------------------------------------------------------------
// Drain + resume: the recovery guarantee end to end
// ---------------------------------------------------------------------------

/** Builds the reference two-scenario sweep over @p fn. */
runner::Sweep
two_scenario_sweep(runner::SweepOptions options, runner::TrialFn fn)
{
    runner::Sweep sweep(std::move(options));
    sweep.add_scenario("alpha", 3, fn);
    sweep.add_scenario("beta", 3, fn);
    return sweep;
}

TEST(Resume, DrainedSweepResumesToByteIdenticalJson)
{
    ShutdownGuard guard;

    // Reference: the uninterrupted run.
    const std::string ref_json = temp_path("resume_ref.json");
    runner::SweepOptions ref_options = base_options();
    ref_options.json_out = ref_json;
    {
        runner::SweepRun run =
            two_scenario_sweep(ref_options, synthetic_result).run();
        EXPECT_EQ(runner::finish_sweep(run, ref_options), runner::kExitOk);
        EXPECT_FALSE(file_exists(runner::journal_path(ref_json, 0, 1)))
            << "a committed report must remove its journal";
    }
    const std::string reference = slurp(ref_json);
    ASSERT_FALSE(reference.empty());

    // Interrupted: a shutdown request lands after the second trial, as if
    // SIGTERM arrived mid-sweep. Serial jobs make the cut deterministic.
    const std::string out_json = temp_path("resume_out.json");
    runner::SweepOptions options = base_options();
    options.json_out = out_json;
    {
        runner::SweepRun run =
            two_scenario_sweep(
                options,
                [](const runner::TrialContext &ctx) {
                    runner::TrialResult r = synthetic_result(ctx);
                    if (ctx.spec().global_index == 1)
                        runner::request_shutdown();
                    return r;
                })
                .run();
        EXPECT_EQ(run.completed, 2u);
        EXPECT_EQ(run.skipped, 4u);
        EXPECT_FALSE(run.complete());
        EXPECT_EQ(runner::finish_sweep(run, options),
                  runner::kExitPartial);
        EXPECT_FALSE(file_exists(out_json))
            << "a partial run must not write final JSON";
        EXPECT_TRUE(file_exists(runner::journal_path(out_json, 0, 1)))
            << "the journal must survive for --resume";
    }

    // Resume: replay the journal, run only the remainder.
    runner::clear_shutdown();
    options.resume = true;
    {
        runner::SweepRun run =
            two_scenario_sweep(options, synthetic_result).run();
        EXPECT_EQ(run.resumed, 2u);
        EXPECT_EQ(run.skipped, 0u);
        EXPECT_TRUE(run.complete());
        EXPECT_EQ(runner::finish_sweep(run, options), runner::kExitOk);
    }
    EXPECT_EQ(slurp(out_json), reference)
        << "resume must be byte-identical to an uninterrupted run";
    EXPECT_FALSE(file_exists(runner::journal_path(out_json, 0, 1)));
}

TEST(Resume, RefusesAJournalThatContradictsThePlan)
{
    ShutdownGuard guard;
    const std::string out_json = temp_path("resume_mismatch.json");

    runner::SweepOptions options = base_options();
    options.json_out = out_json;
    {
        runner::Sweep sweep(options);
        sweep.add_scenario("alpha", 2,
                           [](const runner::TrialContext &ctx) {
                               runner::request_shutdown();
                               return synthetic_result(ctx);
                           });
        runner::SweepRun run = sweep.run();
        EXPECT_EQ(runner::finish_sweep(run, options),
                  runner::kExitPartial);
    }

    // Same name, same seed — but the sweep definition changed (different
    // scenario), so the journaled record no longer matches the plan.
    runner::clear_shutdown();
    options.resume = true;
    runner::Sweep changed(options);
    changed.add_scenario("gamma", 2, synthetic_result);
    try {
        changed.run();
        FAIL() << "resume accepted a journal from a different plan";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("sweep plan"),
                  std::string::npos)
            << e.what();
    }
    std::remove(runner::journal_path(out_json, 0, 1).c_str());
}

TEST(Output, JsonWritesAreAtomicAndFailuresAreReported)
{
    const runner::ResultSink sink;

    runner::SweepOptions good = base_options();
    good.json_out = temp_path("atomic.json");
    EXPECT_TRUE(runner::write_json_output(sink, good));
    const std::string written = slurp(good.json_out);
    EXPECT_EQ(written.front(), '{');

    runner::SweepOptions bad = base_options();
    bad.json_out = ::testing::TempDir() + "no_such_dir/never.json";
    EXPECT_FALSE(runner::write_json_output(sink, bad));

    runner::SweepOptions none = base_options();  // no report requested
    EXPECT_TRUE(runner::write_json_output(sink, none));
}

TEST(Output, UnwritableReportPathStillRunsAndExitsJsonError)
{
    // The journal lives next to the report, so an unwritable destination
    // also fails journal creation. That must degrade (run unjournaled),
    // not abort: the sweep completes and the unwritable report keeps its
    // documented exit code.
    runner::SweepOptions options = base_options();
    options.json_out = ::testing::TempDir() + "no_such_dir/report.json";
    const runner::SweepRun run = run_synthetic(options);
    EXPECT_EQ(run.completed, 3u);
    EXPECT_EQ(runner::finish_sweep(run, options),
              runner::kExitJsonError);
}

}  // namespace
}  // namespace anvil
