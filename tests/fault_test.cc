/**
 * @file
 * Tests of the sweep engine's fault paths, driven by real faults: a trial
 * body that outruns its watchdog budget becomes a recorded timeout, and
 * the report commit refuses an unsynced or unwritable file and writes a
 * FIFO in place. (A throwing trial body is covered by
 * Sweep.TrialExceptionBecomesErrorNotCrash in runner_test.cc.)
 */
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/error.hh"
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
// Watchdog timeouts become structured outcomes
// ---------------------------------------------------------------------------

TEST(Watchdog, TimeoutFromTheTrialBodyIsRecorded)
{
    // Trial 0 is a runaway: it keeps consuming simulated events until
    // the watchdog aborts it. Its siblings run to completion, and the
    // timed-out trial is recorded once, never retried.
    runner::SweepOptions options = base_options();
    options.trial_timeout = 1000;
    runner::Sweep sweep(std::move(options));
    sweep.add_scenario("alpha", 3, [](const runner::TrialContext &ctx) {
        if (ctx.spec().trial == 0) {
            for (;;)
                ctx.watchdog().tick();
        }
        return synthetic_result(ctx);
    });
    const runner::SweepRun run = sweep.run();

    ASSERT_EQ(run.outcomes.size(), 3u);
    EXPECT_EQ(run.outcomes[0].status, runner::TrialStatus::kTimedOut);
    EXPECT_NE(run.outcomes[0].error.find("budget"), std::string::npos)
        << run.outcomes[0].error;
    EXPECT_EQ(run.completed, 2u);
    EXPECT_EQ(run.failed, 1u);

    const std::string json = json_of(run);
    EXPECT_NE(json.find("\"status\": \"timed_out\""), std::string::npos);
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

TEST(Output, ReportToAFifoReachesItsReaderAndKeepsTheFifo)
{
    // `--json-out` naming a FIFO: the report goes through the FIFO to its
    // reader, and the FIFO stays a FIFO rather than being renamed over.
    runner::SweepOptions options = base_options();
    options.json_out = temp_path("report.fifo");
    ASSERT_EQ(::mkfifo(options.json_out.c_str(), 0600), 0)
        << std::strerror(errno);
    // Opened before the commit, so the writer's open does not wait; the
    // reader gives up after 10 s without data (a report that never comes).
    const int rfd = ::open(options.json_out.c_str(),
                           O_RDONLY | O_NONBLOCK | O_CLOEXEC);
    ASSERT_GE(rfd, 0) << std::strerror(errno);
    std::string received;
    std::thread reader([rfd, &received] {
        pollfd pfd{rfd, POLLIN, 0};
        char buf[4096];
        while (::poll(&pfd, 1, 10000) > 0) {
            const ssize_t n = ::read(rfd, buf, sizeof buf);
            if (n > 0)
                received.append(buf, static_cast<std::size_t>(n));
            else if (n == 0 || errno != EAGAIN)
                break;
        }
    });

    const runner::SweepRun run = run_synthetic(options);
    EXPECT_EQ(runner::finish_sweep(run, options), runner::kExitOk);
    reader.join();
    ::close(rfd);

    EXPECT_EQ(received, json_of(run));
    struct stat st;
    ASSERT_EQ(::lstat(options.json_out.c_str(), &st), 0);
    EXPECT_TRUE(S_ISFIFO(st.st_mode)) << "the FIFO was replaced";
    EXPECT_FALSE(entry_exists(options.json_out + ".tmp"));
    std::remove(options.json_out.c_str());
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
