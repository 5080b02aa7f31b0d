/**
 * @file
 * Tests of the sweep engine's fault paths, driven by deterministic fault
 * injection (runner/fault.hh): fault-spec parsing and the planned-trial
 * check, error boundaries, watchdog timeouts, and the report commit that
 * refuses an unsynced or unwritable file.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hh"
#include "runner/fault.hh"
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

/** True when @p path names a directory entry, even a dangling symlink. */
bool
entry_exists(const std::string &path)
{
    return std::filesystem::exists(std::filesystem::symlink_status(path));
}

/** A per-test scratch path, cleared of leftovers from earlier runs. */
std::string
temp_path(const std::string &name)
{
    const std::string path =
        ::testing::TempDir() + "anvil_fault_test_" + name;
    std::remove(path.c_str());
    return path;
}

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
    // The trial index is range-checked and unsigned: no clamp to
    // 2^64 - 1, no wrap of a sign.
    EXPECT_THROW(runner::parse_fault("throw@x:99999999999999999999"),
                 Error);
    EXPECT_THROW(runner::parse_fault("throw@x:-1"), Error);
    EXPECT_THROW(runner::parse_fault("throw@x:+1"), Error);
    EXPECT_EQ(runner::parse_fault("throw@x:18446744073709551615").trial,
              UINT64_MAX);
    // The process-killing kinds left with the process supervisor, the
    // flaky/corrupt kinds with the retries they existed to test, and
    // stall with the kill-and-resume path it froze sweeps for.
    EXPECT_THROW(runner::parse_fault("abort@x:1"), Error);
    EXPECT_THROW(runner::parse_fault("flaky@x:1"), Error);
    EXPECT_THROW(runner::parse_fault("corrupt@x:1"), Error);
    EXPECT_THROW(runner::parse_fault("sigkill-self@x:1"), Error);
    EXPECT_THROW(runner::parse_fault("stall@alpha:0"), Error);
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

TEST(FaultSpec, UnplannedInjectionIsRefusedBeforeAnyTrialRuns)
{
    for (const char *text : {"throw@alpah:0", "throw@alpha:3",
                             "hang@no such scenario:0"}) {
        int runs = 0;
        runner::SweepOptions options = base_options();
        options.faults = {runner::parse_fault(text)};
        runner::Sweep sweep(std::move(options));
        sweep.add_scenario("alpha", 3, [&](const runner::TrialContext &c) {
            ++runs;
            return synthetic_result(c);
        });
        sweep.add_scenario("beta", 2, synthetic_result);
        try {
            (void)sweep.run();
            ADD_FAILURE() << text << " was accepted";
        } catch (const Error &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(std::string("spec=") + text),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find("planned=alpha:0..2; beta:0..1"),
                      std::string::npos)
                << what;
        }
        EXPECT_EQ(runs, 0) << text;
    }

    // A near miss of a planned scenario name gets a suggestion.
    runner::SweepOptions options = base_options();
    options.faults = {runner::parse_fault("throw@alpah:0")};
    try {
        (void)run_synthetic(std::move(options));
        ADD_FAILURE() << "a typo'd scenario was accepted";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("did_you_mean=alpha"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FaultSpec, ReplayChecksInjectionsAgainstTheFullPlan)
{
    // The fault aims at trial 2, the replay runs trial 0: valid, since a
    // run of the whole sweep fires it; the replayed trial is clean.
    runner::SweepOptions options = base_options();
    options.replay_trial = 0;
    options.faults = {runner::parse_fault("throw@alpha:2")};
    const runner::SweepRun run = run_synthetic(options);
    ASSERT_EQ(run.outcomes.size(), 1u);
    EXPECT_EQ(run.outcomes[0].status, runner::TrialStatus::kOk);

    // Aimed at no trial of the full plan: refused under a replay too.
    options.faults = {runner::parse_fault("throw@alpha:3")};
    EXPECT_THROW((void)run_synthetic(options), Error);
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

TEST(FaultInjection, HangIsBoundedByTheWatchdogAndNeverRetried)
{
    runner::SweepOptions options = base_options();
    options.faults = {runner::parse_fault("hang@alpha:0")};
    options.trial_timeout = 1000;
    const runner::SweepRun run = run_synthetic(std::move(options));

    ASSERT_EQ(run.outcomes.size(), 3u);
    EXPECT_EQ(run.outcomes[0].status, runner::TrialStatus::kTimedOut);
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

TEST(FaultInjection, TimeoutFromTheTrialBodyIsRecorded)
{
    runner::SweepOptions options = base_options();
    options.trial_timeout = 100;
    runner::Sweep sweep(std::move(options));
    sweep.add_scenario("ticking", 1, [](const runner::TrialContext &ctx) {
        for (int i = 0; i < 10000; ++i)
            ctx.watchdog().tick();
        return runner::TrialResult{};
    });
    const runner::SweepRun run = sweep.run();
    ASSERT_EQ(run.outcomes.size(), 1u);
    EXPECT_EQ(run.outcomes[0].status, runner::TrialStatus::kTimedOut);
}

// ---------------------------------------------------------------------------
// Report commit
// ---------------------------------------------------------------------------

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

TEST(Output, FailedFsyncCommitsNoReport)
{
    // The report's temp file is a symlink to /dev/null, whose fsync
    // fails: nothing may be renamed into place, and the temp file goes.
    runner::SweepOptions options = base_options();
    options.json_out = temp_path("fsync_report.json");
    const std::string tmp = options.json_out + ".tmp";
    std::remove(tmp.c_str());
    std::filesystem::create_symlink("/dev/null", tmp);

    const runner::SweepRun run = run_synthetic(options);
    EXPECT_EQ(runner::finish_sweep(run, options),
              runner::kExitJsonError);
    EXPECT_FALSE(entry_exists(options.json_out))
        << "an unsynced report was committed";
    EXPECT_FALSE(entry_exists(tmp));

    std::remove(options.json_out.c_str());
    std::remove(tmp.c_str());
}

TEST(Output, UnwritableReportPathStillRunsAndExitsJsonError)
{
    // An unwritable destination is found only at the commit: the sweep
    // still runs every trial, and the report keeps its documented exit
    // code.
    runner::SweepOptions options = base_options();
    options.json_out = ::testing::TempDir() + "no_such_dir/report.json";
    const runner::SweepRun run = run_synthetic(options);
    EXPECT_EQ(run.completed, 3u);
    EXPECT_EQ(runner::finish_sweep(run, options),
              runner::kExitJsonError);
}

}  // namespace
}  // namespace anvil
