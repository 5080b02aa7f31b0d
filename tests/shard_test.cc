/**
 * @file
 * Tests of the sharded-campaign machinery (runner/shard.hh,
 * runner/supervisor.hh): trial partitioning and range syntax, in-process
 * shard runs whose journals merge byte-identically to a direct run (in
 * any completion order, with empty shards, across requeue-style
 * overlaps, and for a plain run's journal as a one-shard campaign), the
 * rule that only a whole-plan run commits a report, the merge
 * validator's rejection paths (divergent
 * duplicates, foreign plan headers, incomplete campaigns), lease-record
 * replay semantics, process-fault once-markers, and — through the real
 * anvil-sim binary (ANVIL_SIM_PATH) — the headline guarantee: a
 * supervised multi-process run with injected shard crashes and stalls
 * recovers and produces JSON byte-identical to the committed
 * single-process golden.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "common/error.hh"
#include "runner/fault.hh"
#include "runner/journal.hh"
#include "runner/shard.hh"
#include "runner/supervisor.hh"
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

/** Registers the canonical 2-scenario x 3-trial synthetic sweep. */
void
add_synthetic_scenarios(runner::Sweep &sweep)
{
    sweep.add_scenario("alpha", 3, synthetic_result);
    sweep.add_scenario("beta", 3, synthetic_result);
}

std::string
json_of(const runner::ResultSink &sink)
{
    std::ostringstream os;
    sink.write_json(os);
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

/**
 * A per-test scratch path, cleared of leftovers from earlier runs: the
 * report, the plain journal, and shard journals of up to 8 shards.
 */
std::string
temp_path(const std::string &name)
{
    const std::string path =
        ::testing::TempDir() + "anvil_shard_test_" + name;
    std::remove(path.c_str());
    std::remove(runner::journal_path(path, 0, 1).c_str());
    for (std::uint32_t k = 0; k < 8; ++k)
        std::remove(runner::journal_path(path, k, 8).c_str());
    return path;
}

/** Tests that touch the process-wide drain flag must leave it cleared. */
struct ShutdownGuard {
    ShutdownGuard() { runner::clear_shutdown(); }
    ~ShutdownGuard() { runner::clear_shutdown(); }
};

/** The direct (unsharded, 1-process) run every merge must reproduce. */
std::string
direct_json()
{
    runner::Sweep sweep(base_options());
    add_synthetic_scenarios(sweep);
    return json_of(sweep.run().sink);
}

/** The synthetic sweep's full deterministic plan. */
std::vector<runner::TrialSpec>
synthetic_plan()
{
    runner::Sweep sweep(base_options());
    add_synthetic_scenarios(sweep);
    return sweep.plan_specs();
}

/** Options for shard @p index of @p count of the synthetic sweep. */
runner::SweepOptions
shard_options(const std::string &json_out, std::uint32_t index,
              std::uint32_t count, std::vector<runner::TrialRange> ranges)
{
    runner::SweepOptions options = base_options();
    options.json_out = json_out;
    runner::ShardAssignment shard;
    shard.index = index;
    shard.count = count;
    shard.ranges = std::move(ranges);
    shard.lease_interval_ms = 50;
    options.shard = shard;
    return options;
}

/**
 * Runs one in-process shard of the synthetic sweep over @p ranges the
 * way `anvil-sim shard` does: resuming from its own journal, and
 * finishing without a report (the journal is a shard's output).
 */
int
run_shard(const std::string &json_out, std::uint32_t index,
          std::uint32_t count, std::vector<runner::TrialRange> ranges)
{
    runner::SweepOptions options =
        shard_options(json_out, index, count, std::move(ranges));
    options.resume = true;
    runner::Sweep sweep(options);
    add_synthetic_scenarios(sweep);
    const runner::SweepRun run = sweep.run();
    options.json_out.clear();
    return runner::finish_sweep(run, options);
}

runner::MergeResult
merge(const std::string &json_out, std::uint32_t count, bool check = false)
{
    runner::SweepOptions options = base_options();
    options.json_out = json_out;
    options.shard.count = count;
    return runner::merge_shards(synthetic_plan(), options, check);
}

// ---------------------------------------------------------------------------
// Partitioning and range syntax
// ---------------------------------------------------------------------------

TEST(Partition, SplitsNearEvenlyAndContiguously)
{
    const auto shards = runner::partition_trials(10, 4);
    ASSERT_EQ(shards.size(), 4u);
    EXPECT_EQ(runner::to_string(shards[0]), "0-2");
    EXPECT_EQ(runner::to_string(shards[1]), "3-5");
    EXPECT_EQ(runner::to_string(shards[2]), "6-7");
    EXPECT_EQ(runner::to_string(shards[3]), "8-9");
}

TEST(Partition, MoreShardsThanTrialsLeavesEmptyShards)
{
    const auto shards = runner::partition_trials(3, 5);
    ASSERT_EQ(shards.size(), 5u);
    EXPECT_EQ(runner::to_string(shards[0]), "0");
    EXPECT_EQ(runner::to_string(shards[2]), "2");
    EXPECT_TRUE(shards[3].empty());
    EXPECT_TRUE(shards[4].empty());
    for (const auto &shard : runner::partition_trials(0, 3))
        EXPECT_TRUE(shard.empty());
    EXPECT_THROW(runner::partition_trials(4, 0), Error);
}

TEST(Ranges, ParseAndRenderRoundTrip)
{
    const auto ranges = runner::parse_trial_ranges("0-2,5,7-9");
    ASSERT_EQ(ranges.size(), 3u);
    EXPECT_TRUE(ranges[0].contains(1));
    EXPECT_FALSE(ranges[0].contains(3));
    EXPECT_EQ(ranges[1].first, 5u);
    EXPECT_EQ(ranges[1].last, 5u);
    EXPECT_EQ(runner::to_string(ranges), "0-2,5,7-9");

    EXPECT_THROW(runner::parse_trial_ranges(""), Error);
    EXPECT_THROW(runner::parse_trial_ranges("banana"), Error);
    EXPECT_THROW(runner::parse_trial_ranges("5-2"), Error);   // descending
    EXPECT_THROW(runner::parse_trial_ranges("0-3,2-5"), Error);  // overlap
}

TEST(Ranges, CompressesIndicesToMinimalRanges)
{
    EXPECT_EQ(runner::to_string(
                  runner::compress_indices({0, 1, 2, 5, 7, 8})),
              "0-2,5,7-8");
    EXPECT_TRUE(runner::compress_indices({}).empty());
}

TEST(Backoff, DoublesPerConsecutiveDeath)
{
    EXPECT_EQ(runner::backoff_delay_ms(100, 0), 0u);
    EXPECT_EQ(runner::backoff_delay_ms(100, 1), 100u);
    EXPECT_EQ(runner::backoff_delay_ms(100, 2), 200u);
    EXPECT_EQ(runner::backoff_delay_ms(100, 4), 800u);
}

// ---------------------------------------------------------------------------
// Shard runs + deterministic merge
// ---------------------------------------------------------------------------

TEST(ShardRun, MergedJournalsAreByteIdenticalToADirectRun)
{
    const std::string out = temp_path("merge_basic.json");
    const auto parts = runner::partition_trials(6, 2);
    EXPECT_EQ(run_shard(out, 0, 2, parts[0]), runner::kExitOk);
    EXPECT_EQ(run_shard(out, 1, 2, parts[1]), runner::kExitOk);

    runner::MergeResult m = merge(out, 2);
    ASSERT_TRUE(m.complete()) << (m.problems.empty() ? ""
                                                     : m.problems.front());
    EXPECT_EQ(m.run.outcomes.size(), 6u);
    EXPECT_EQ(m.duplicates, 0u);
    EXPECT_EQ(json_of(m.run.sink), direct_json());
}

TEST(ShardRun, OutOfOrderShardCompletionIsByteIdentical)
{
    const std::string out = temp_path("merge_ooo.json");
    const auto parts = runner::partition_trials(6, 3);
    // Shards complete in reverse order; the merge folds in plan order,
    // so completion order must be invisible in the output.
    EXPECT_EQ(run_shard(out, 2, 3, parts[2]), runner::kExitOk);
    EXPECT_EQ(run_shard(out, 1, 3, parts[1]), runner::kExitOk);
    EXPECT_EQ(run_shard(out, 0, 3, parts[0]), runner::kExitOk);

    runner::MergeResult m = merge(out, 3);
    ASSERT_TRUE(m.complete());
    EXPECT_EQ(json_of(m.run.sink), direct_json());
}

TEST(ShardRun, EmptyShardWritesAValidBareJournal)
{
    const std::string out = temp_path("merge_empty.json");
    // 7 shards over 6 trials, each owning its slice of the even
    // partition (no explicit ranges, as the CLI runs them): shard 6 has
    // nothing to run.
    for (std::uint32_t k = 0; k < 7; ++k)
        EXPECT_EQ(run_shard(out, k, 7, {}), runner::kExitOk);

    // The empty shard still left a header-only journal with the right
    // identity — evidence it ran, not a hole in the campaign.
    runner::JournalHeader header =
        runner::read_journal_header(runner::journal_path(out, 6, 7));
    EXPECT_EQ(header.sweep, "synthetic");
    EXPECT_EQ(header.shard_index, 6u);
    EXPECT_EQ(header.shard_count, 7u);

    runner::MergeResult m = merge(out, 7);
    ASSERT_TRUE(m.complete());
    EXPECT_EQ(json_of(m.run.sink), direct_json());
}

TEST(ShardRun, ShardResumesFromItsOwnJournal)
{
    const std::string out = temp_path("merge_resume.json");
    // First run covers a prefix of the shard's range; the second run of
    // the *same* shard must replay those records and run only the rest.
    EXPECT_EQ(run_shard(out, 0, 2, {runner::TrialRange{0, 1}}),
              runner::kExitOk);
    EXPECT_EQ(run_shard(out, 0, 2, {runner::TrialRange{0, 2}}),
              runner::kExitOk);
    EXPECT_EQ(run_shard(out, 1, 2, {runner::TrialRange{3, 5}}),
              runner::kExitOk);

    runner::MergeResult m = merge(out, 2);
    ASSERT_TRUE(m.complete());
    EXPECT_EQ(m.duplicates, 0u);  // replay, not re-execution
    EXPECT_EQ(json_of(m.run.sink), direct_json());
}

TEST(ShardRun, PartialOwnerCommitsNoReport)
{
    // A run handed shard flags owns part of the plan, whether its ranges
    // are explicit or its default slice of the partition. Finishing it
    // like a plain run must not commit a report over that part as if it
    // were the whole sweep: its journal is its output.
    for (const auto &ranges : {std::vector<runner::TrialRange>{{0, 2}},
                               std::vector<runner::TrialRange>{}}) {
        const std::string out = temp_path("partial_owner.json");
        const runner::SweepOptions options =
            shard_options(out, 0, 2, ranges);
        runner::Sweep sweep(options);
        add_synthetic_scenarios(sweep);
        const runner::SweepRun run = sweep.run();
        EXPECT_EQ(run.completed, 3u);
        EXPECT_EQ(runner::finish_sweep(run, options), runner::kExitOk);
        EXPECT_FALSE(file_exists(out))
            << "a run over part of the plan committed a report";
        EXPECT_TRUE(file_exists(runner::journal_path(out, 0, 2)));
    }
}

TEST(ShardRun, PlainRunJournalMergesAsAOneShardCampaign)
{
    ShutdownGuard guard;
    const std::string out = temp_path("one_shard.json");
    runner::SweepOptions options = base_options();
    options.json_out = out;

    // A plain run drained after its second trial keeps its journal...
    {
        runner::Sweep sweep(options);
        const auto drain_after_1 = [](const runner::TrialContext &ctx) {
            runner::TrialResult r = synthetic_result(ctx);
            if (ctx.spec().global_index == 1)
                runner::request_shutdown();
            return r;
        };
        sweep.add_scenario("alpha", 3, drain_after_1);
        sweep.add_scenario("beta", 3, drain_after_1);
        const runner::SweepRun run = sweep.run();
        EXPECT_EQ(runner::finish_sweep(run, options),
                  runner::kExitPartial);
    }
    // ...a resumed run completes it without committing...
    runner::clear_shutdown();
    options.resume = true;
    {
        runner::Sweep sweep(options);
        add_synthetic_scenarios(sweep);
        const runner::SweepRun run = sweep.run();
        EXPECT_EQ(run.resumed, 2u);
        EXPECT_TRUE(run.complete());
    }
    // ...and the journal is shard 0 of 1: it merges into the direct
    // run's bytes, and committing the merge retires it.
    runner::MergeResult m = merge(out, 1);
    ASSERT_TRUE(m.complete()) << (m.problems.empty() ? ""
                                                     : m.problems.front());
    EXPECT_EQ(json_of(m.run.sink), direct_json());
    EXPECT_EQ(runner::finish_sweep(m.run, options), runner::kExitOk);
    EXPECT_EQ(slurp(out), direct_json());
    EXPECT_FALSE(file_exists(runner::journal_path(out, 0, 1)));
    std::remove(out.c_str());
}

// ---------------------------------------------------------------------------
// Merge validation
// ---------------------------------------------------------------------------

TEST(Merge, IdenticalDuplicateFromARequeueRaceIsAccepted)
{
    const std::string out = temp_path("merge_dup.json");
    // Trial 2 is claimed by both shards — the requeue race: the original
    // owner journaled it right before dying, and the reassigned survivor
    // ran it again. Determinism makes both records identical.
    EXPECT_EQ(run_shard(out, 0, 2, {runner::TrialRange{0, 2}}),
              runner::kExitOk);
    EXPECT_EQ(run_shard(out, 1, 2, {runner::TrialRange{2, 5}}),
              runner::kExitOk);

    runner::MergeResult m = merge(out, 2);
    ASSERT_TRUE(m.complete());
    EXPECT_EQ(m.run.outcomes.size(), 6u);
    EXPECT_EQ(m.duplicates, 1u);
    EXPECT_EQ(json_of(m.run.sink), direct_json());

    // The strict validator (merge --check) flags the same overlap.
    runner::MergeResult strict = merge(out, 2, /*check=*/true);
    EXPECT_FALSE(strict.complete());
    ASSERT_FALSE(strict.problems.empty());
    EXPECT_NE(strict.problems.front().find("also claimed"),
              std::string::npos);
}

TEST(Merge, DivergentDuplicateIsRefused)
{
    const std::string out = temp_path("merge_diverge.json");
    const auto plan = synthetic_plan();
    EXPECT_EQ(run_shard(out, 0, 2, {runner::TrialRange{0, 5}}),
              runner::kExitOk);

    // Forge shard 1's journal: it claims trial 0 with a *different*
    // outcome — what a nondeterministic trial body would produce.
    runner::JournalHeader header;
    header.sweep = "synthetic";
    header.master_seed = 0x5eedULL;
    header.plan_hash = runner::plan_hash(plan);
    header.shard_index = 1;
    header.shard_count = 2;
    {
        runner::JournalWriter writer;
        writer.open(runner::journal_path(out, 1, 2), header,
                    /*append=*/false);
        runner::TrialOutcome outcome;
        outcome.result.set_value("metric", 123.456);
        outcome.result.set_counter("events", 999);
        writer.append(plan[0], outcome);
    }

    runner::MergeResult m = merge(out, 2);
    EXPECT_FALSE(m.complete());
    ASSERT_FALSE(m.problems.empty());
    EXPECT_NE(m.problems.front().find("diverges"), std::string::npos);
}

TEST(Merge, JournalWithMismatchedPlanHeaderIsRejected)
{
    const std::string out = temp_path("merge_foreign.json");
    const auto plan = synthetic_plan();
    EXPECT_EQ(run_shard(out, 0, 2, {runner::TrialRange{0, 2}}),
              runner::kExitOk);

    // Shard 1's journal comes from a different sweep definition: same
    // name and seed, different plan hash (trial count changed).
    runner::JournalHeader header;
    header.sweep = "synthetic";
    header.master_seed = 0x5eedULL;
    header.plan_hash = runner::plan_hash(plan) ^ 0xdeadbeefULL;
    header.shard_index = 1;
    header.shard_count = 2;
    {
        runner::JournalWriter writer;
        writer.open(runner::journal_path(out, 1, 2), header,
                    /*append=*/false);
    }

    runner::MergeResult m = merge(out, 2);
    EXPECT_FALSE(m.complete());
    bool mentions_plan = false;
    for (const std::string &problem : m.problems)
        mentions_plan |= problem.find("sweep plan") != std::string::npos;
    EXPECT_TRUE(mentions_plan)
        << (m.problems.empty() ? "" : m.problems.front());
}

TEST(Merge, IncompleteCampaignNamesTheMissingRanges)
{
    const std::string out = temp_path("merge_incomplete.json");
    EXPECT_EQ(run_shard(out, 0, 2, {runner::TrialRange{0, 2}}),
              runner::kExitOk);
    // Shard 1 never ran: trials 3-5 are durable nowhere.
    runner::MergeResult m = merge(out, 2);
    EXPECT_FALSE(m.complete());
    ASSERT_FALSE(m.problems.empty());
    const std::string &problem = m.problems.back();
    EXPECT_NE(problem.find("incomplete campaign"), std::string::npos);
    EXPECT_NE(problem.find("3-5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Lease records and process-fault markers
// ---------------------------------------------------------------------------

TEST(Lease, HeartbeatRecordsAreInvisibleToReplay)
{
    const std::string path = temp_path("lease.journal");
    const auto plan = synthetic_plan();
    const runner::JournalHeader header{"synthetic", 0x5eedULL,
                                       runner::plan_hash(plan), 0, 1};
    {
        runner::JournalWriter writer;
        writer.open(path, header, /*append=*/false);
        writer.append_lease(0);
        runner::TrialOutcome outcome;
        outcome.result = synthetic_result(runner::TrialContext(plan[0]));
        writer.append(plan[0], outcome);
        writer.append_lease(1);
        writer.append_lease(2);
    }
    const auto records = runner::read_journal(path, header, plan);
    ASSERT_EQ(records.size(), 1u);  // leases are liveness, not results
    EXPECT_EQ(records[0].spec.global_index, 0u);
    std::remove(path.c_str());
}

TEST(FaultMarker, SpentMarkerSuppressesAProcessFault)
{
    const std::string base = temp_path("marker.json");
    const runner::FaultSpec fault = runner::parse_fault("abort@alpha:1");
    ASSERT_TRUE(runner::is_process_fault(fault.kind));

    // Pretend a previous incarnation of this process already fired the
    // fault: the marker exists, so injecting again must be a no-op —
    // otherwise a deterministic crash would burn the supervisor's whole
    // respawn budget and recovery could never complete.
    const std::string marker = runner::fault_marker_path(base, fault);
    { std::ofstream(marker) << "spent"; }

    runner::FaultPlan plans({fault});
    plans.set_marker_base(base);
    runner::TrialSpec spec;
    spec.scenario = "alpha";
    spec.trial = 1;
    const runner::TrialContext ctx(spec);
    plans.inject_before(fault, ctx, 1);  // must NOT abort the process
    SUCCEED();
    std::remove(marker.c_str());
}

TEST(FaultSpec, ProcessKindsParseAndRenderRoundTrip)
{
    for (const char *text :
         {"abort@alpha:1", "sigkill-self@CLFLUSH (Light Load):0",
          "stall@beta:2"}) {
        const runner::FaultSpec fault = runner::parse_fault(text);
        EXPECT_TRUE(runner::is_process_fault(fault.kind)) << text;
        EXPECT_EQ(runner::to_string(fault), text);
    }
    EXPECT_FALSE(runner::is_process_fault(runner::FaultKind::kThrow));
    EXPECT_FALSE(runner::is_process_fault(runner::FaultKind::kCorrupt));
}

// ---------------------------------------------------------------------------
// End-to-end: the real binary, real processes, real crashes
// ---------------------------------------------------------------------------

#ifdef ANVIL_SIM_PATH

int
run_command(const std::string &command)
{
    const int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/**
 * The acceptance scenario: a 4-shard supervised table3 campaign where
 * one shard SIGKILLs itself mid-trial and another wedges (SIGSTOP) past
 * its lease, recovered by respawn, with final JSON byte-identical to
 * the committed single-process golden.
 */
TEST(Supervise, CrashedAndStalledShardsRecoverByteIdentically)
{
    const std::string out = temp_path("supervise_e2e.json");
    const std::string command =
        std::string(ANVIL_SIM_PATH) +
        " supervise table3_detection --trials 1 --shards 4" +
        " --json-out " + out +
        " --lease-timeout-ms 4000 --backoff-ms 100" +
        " --inject-fault 'sigkill-self@CLFLUSH (Light Load):0'" +
        " --inject-fault 'stall@CLFLUSH-free (Heavy Load):0'" +
        " 2>&1";
    EXPECT_EQ(run_command(command), 0);
    EXPECT_EQ(slurp(out),
              slurp(std::string(ANVIL_TEST_DATA_DIR) +
                    "/table3_golden.json"));
    // Commit removed the shard journals — the campaign is spent.
    for (std::uint32_t k = 0; k < 4; ++k) {
        EXPECT_FALSE(
            file_exists(runner::journal_path(out, k, 4)));
    }
    std::remove(out.c_str());
}

/** merge --check is the campaign validator: incomplete -> exit 6. */
TEST(Supervise, MergeCheckRejectsAnIncompleteCampaign)
{
    const std::string out = temp_path("merge_check_e2e.json");
    const std::string shard0 =
        std::string(ANVIL_SIM_PATH) +
        " shard table3_detection --trials 1 --shard-index 0"
        " --shard-count 4 --json-out " + out + " 2>&1";
    EXPECT_EQ(run_command(shard0), 0);

    const std::string check =
        std::string(ANVIL_SIM_PATH) +
        " merge table3_detection --trials 1 --shards 4 --check"
        " --json-out " + out + " 2>&1";
    EXPECT_EQ(run_command(check), runner::kExitMergeError);
    EXPECT_FALSE(file_exists(out));  // --check never writes the report

    for (std::uint32_t k = 0; k < 4; ++k)
        std::remove(runner::journal_path(out, k, 4).c_str());
}

#endif  // ANVIL_SIM_PATH

}  // namespace
}  // namespace anvil
