/**
 * @file
 * End-to-end tests of the anvil-sim driver binary (ANVIL_SIM_PATH): the
 * paper table never mixes into a report written to stdout, a malformed
 * sweep argument or an out-of-range --replay-trial is a usage error
 * rather than a silently wrong table or an empty report, and a run
 * killed mid-sweep with SIGKILL commits nothing and leaves nothing
 * beside its report path.
 */
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runner/sweep.hh"

namespace anvil {
namespace {

#ifdef ANVIL_SIM_PATH

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

std::string
golden_table3()
{
    return slurp(std::string(ANVIL_TEST_DATA_DIR) + "/table3_golden.json");
}

/** A per-test scratch path, cleared of a leftover report. */
std::string
temp_path(const std::string &name)
{
    const std::string path =
        ::testing::TempDir() + "anvil_driver_test_" + name;
    std::remove(path.c_str());
    return path;
}

int
run_command(const std::string &command)
{
    const int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** Starts anvil-sim with @p args, its stdout and stderr discarded. */
pid_t
spawn_sim(const std::vector<std::string> &args)
{
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(ANVIL_SIM_PATH));
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
        std::freopen("/dev/null", "w", stdout);
        std::freopen("/dev/null", "w", stderr);
        ::execv(ANVIL_SIM_PATH, argv.data());
        ::_exit(127);
    }
    return pid;
}

/** Entries next to @p path named "<basename of path>.*". */
std::vector<std::string>
siblings_of(const std::string &path)
{
    const std::filesystem::path p(path);
    const std::string prefix = p.filename().string() + ".";
    std::vector<std::string> found;
    for (const auto &entry :
         std::filesystem::directory_iterator(p.parent_path())) {
        const std::string name = entry.path().filename().string();
        if (name.rfind(prefix, 0) == 0)
            found.push_back(name);
    }
    return found;
}

/**
 * stdout stays one JSON document: with --json-out - the paper table goes
 * to stderr, and stdout is exactly the committed golden report.
 */
TEST(Driver, ReportOnStdoutKeepsTheTableOnStderr)
{
    const std::string out = temp_path("stdout_report.json");
    const std::string err = temp_path("stdout_report.err");
    const std::string command =
        std::string(ANVIL_SIM_PATH) +
        " run table3_detection --trials 1 --json-out - > " + out + " 2> " +
        err;
    EXPECT_EQ(run_command(command), 0);
    EXPECT_EQ(slurp(out), golden_table3());
    EXPECT_NE(slurp(err).find("Table 3: Rowhammer Detection Results"),
              std::string::npos);
    std::remove(out.c_str());
    std::remove(err.c_str());
}

/** A run that writes its report to a file prints the table on stdout. */
TEST(Driver, FileReportRunPrintsThePaperTable)
{
    const std::string report = temp_path("file_report.json");
    const std::string out = temp_path("file_report.out");
    const std::string command =
        std::string(ANVIL_SIM_PATH) +
        " run table3_detection --trials 1 --json-out " + report + " > " +
        out + " 2>/dev/null";
    EXPECT_EQ(run_command(command), 0);
    EXPECT_NE(slurp(out).find("Table 3: Rowhammer Detection Results"),
              std::string::npos);
    EXPECT_EQ(slurp(report), golden_table3());
    std::remove(report.c_str());
    std::remove(out.c_str());
}

/**
 * A sweep argument that is not a positive number, or that exceeds 100
 * times its default (a run that would practically never end, or near
 * 2^64 ops or picoseconds wrap to a wrong one), is a usage error naming
 * the argument, its text and the maximum: no table of -nan rates, no
 * report. The trial budget makes an accepted value fail fast instead of
 * running for hours.
 */
TEST(Driver, MalformedSweepArgumentExitsUsageAndWritesNoReport)
{
    // max: the cap (100 times the default) an over-large value must
    // name; nullptr where the text is not a number at all.
    const struct {
        const char *sweep;
        const char *text;
        const char *max;
    } kCases[] = {
        {"table4_false_positives", "abc", nullptr},
        {"fig3_overhead", "1e30", "400000000"},
        {"fig3_overhead", "1.8e19", "400000000"},
        {"fig3_overhead", "400000001", "400000000"},
        {"fig4_sensitivity", "1e20", "400000000"},
        {"fig4_sensitivity", "4.5e8", "400000000"},
        {"table4_false_positives", "2e7", "300"},
        {"table4_false_positives", "300.5", "300"},
        {"table5_fp_sensitivity", "2e7", "300"},
        {"table5_fp_sensitivity", "301", "300"},
        {"noisy_neighbor_fp", "1e19", "100"},
        {"noisy_neighbor_fp", "100.01", "100"},
    };
    const std::string report = temp_path("bad_positional.json");
    const std::string err = temp_path("bad_positional.err");
    for (const auto &c : kCases) {
        SCOPED_TRACE(std::string(c.sweep) + " " + c.text);
        const std::string command =
            std::string(ANVIL_SIM_PATH) + " run " + c.sweep + " " + c.text +
            " --trials 1 --trial-timeout 1000 --json-out " + report +
            " >/dev/null 2> " + err;
        EXPECT_EQ(run_command(command), runner::kExitUsage);
        const std::string message = slurp(err);
        EXPECT_NE(message.find("sweep argument"), std::string::npos)
            << message;
        EXPECT_NE(message.find("argument=0"), std::string::npos) << message;
        EXPECT_NE(message.find(std::string("text=") + c.text),
                  std::string::npos)
            << message;
        if (c.max != nullptr) {
            EXPECT_NE(message.find(std::string("max=") + c.max),
                      std::string::npos)
                << message;
        }
        EXPECT_FALSE(file_exists(report));
    }
    std::remove(err.c_str());
}

/**
 * A sweep argument that rounds a cell's run to nothing (an op quota
 * truncated to 0, a window rounded to 0 ticks) is a usage error naming
 * the scenario and the field: no all-zero or -nan table, no report.
 */
TEST(Driver, ZeroLengthRunExitsUsageNamingTheField)
{
    const struct {
        const char *args;
        const char *field;
    } kCases[] = {
        {"fig3_overhead 0.5", "run.ops"},
        {"fig4_sensitivity 0.9", "run.ops"},
        {"table4_false_positives 1e-13", "run.duration"},
        {"table5_fp_sensitivity 1e-13", "run.duration"},
        {"noisy_neighbor_fp 1e-13", "run.duration"},
    };
    const std::string report = temp_path("zero_length.json");
    const std::string err = temp_path("zero_length.err");
    for (const auto &c : kCases) {
        SCOPED_TRACE(c.args);
        const std::string command =
            std::string(ANVIL_SIM_PATH) + " run " + c.args +
            " --trials 1 --json-out " + report + " >/dev/null 2> " + err;
        EXPECT_EQ(run_command(command), runner::kExitUsage);
        const std::string message = slurp(err);
        EXPECT_NE(message.find(c.field), std::string::npos) << message;
        EXPECT_NE(message.find("scenario"), std::string::npos) << message;
        EXPECT_FALSE(file_exists(report));
    }
    std::remove(err.c_str());
}

/**
 * A --replay-trial index past the end of the plan is a usage error
 * naming the index and the plan size: no table of dashes, no empty
 * report.
 */
TEST(Driver, ReplayTrialPastThePlanExitsUsageAndWritesNoReport)
{
    const std::string report = temp_path("replay_past_plan.json");
    const std::string err = temp_path("replay_past_plan.err");
    const std::string command =
        std::string(ANVIL_SIM_PATH) +
        " run table3_detection --trials 1 --replay-trial 99 --json-out " +
        report + " >/dev/null 2> " + err;
    EXPECT_EQ(run_command(command), runner::kExitUsage);
    const std::string message = slurp(err);
    EXPECT_NE(message.find("replay_trial=99"), std::string::npos) << message;
    EXPECT_NE(message.find("trials=4"), std::string::npos) << message;
    EXPECT_FALSE(file_exists(report));
    std::remove(err.c_str());
}

/**
 * A run killed mid-sweep commits nothing: the report is written only
 * after every trial ran, through a temp file renamed into place. The
 * sweep is a long real one (table 4 at three simulated seconds per cell
 * on one worker; its first cell alone takes seconds), so the kill always
 * lands mid-sweep.
 */
TEST(Driver, KilledRunCommitsNoReport)
{
    const std::string out = temp_path("killed.json");
    const pid_t pid =
        spawn_sim({"run", "table4_false_positives", "3.0", "--trials", "1",
                   "--jobs", "1", "--json-out", out});
    ASSERT_GT(pid, 0);

    // Still running after half a second: the command was accepted and
    // the sweep is under way, not refused.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, WNOHANG), 0)
        << "anvil-sim exited before the kill";

    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
    EXPECT_FALSE(file_exists(out)) << "a killed run must not commit";
    const std::vector<std::string> left = siblings_of(out);
    EXPECT_TRUE(left.empty()) << "stray file beside the report: "
                              << left.front();
}

#endif  // ANVIL_SIM_PATH

}  // namespace
}  // namespace anvil
