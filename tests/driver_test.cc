/**
 * @file
 * End-to-end tests of the anvil-sim driver binary (ANVIL_SIM_PATH): the
 * paper table never mixes into a report written to stdout, a malformed
 * sweep argument is a usage error rather than a silently wrong table,
 * and the in-process recovery guarantee survives a real SIGKILL — a
 * plain run killed mid-sweep and finished with --resume commits JSON
 * byte-identical to the committed golden and leaves nothing beside it.
 */
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runner/journal.hh"
#include "runner/options.hh"
#include "runner/sweep.hh"
#include "scenario/builder.hh"
#include "scenario/registry.hh"

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

/** A per-test scratch path, cleared of a leftover report and journal. */
std::string
temp_path(const std::string &name)
{
    const std::string path =
        ::testing::TempDir() + "anvil_driver_test_" + name;
    std::remove(path.c_str());
    std::remove(runner::journal_path(path).c_str());
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
 * A sweep argument that is not a positive number is a usage error: no
 * table of -nan rates, no report.
 */
TEST(Driver, MalformedSweepArgumentExitsUsageAndWritesNoReport)
{
    const std::string report = temp_path("bad_positional.json");
    const std::string command =
        std::string(ANVIL_SIM_PATH) +
        " run table4_false_positives abc --trials 1 --json-out " + report +
        " >/dev/null 2>&1";
    EXPECT_EQ(run_command(command), runner::kExitUsage);
    EXPECT_FALSE(file_exists(report));
    EXPECT_FALSE(file_exists(runner::journal_path(report)));
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
        EXPECT_FALSE(file_exists(runner::journal_path(report)));
    }
    std::remove(err.c_str());
}

/** --resume over a journal of an older format version is a usage error. */
TEST(Driver, ResumeRefusesAnOlderJournalVersion)
{
    const std::string report = temp_path("v3_resume.json");
    const std::string journal = runner::journal_path(report);
    {
        // The 8-byte magic, then a v3 version field.
        std::ofstream out(journal, std::ios::binary);
        const std::uint32_t v3 = 3;
        out.write("ANVLJNL1", 8);
        out.write(reinterpret_cast<const char *>(&v3), sizeof v3);
    }
    const std::string command =
        std::string(ANVIL_SIM_PATH) +
        " run table3_detection --trials 1 --resume --json-out " + report +
        " >/dev/null 2>&1";
    EXPECT_EQ(run_command(command), runner::kExitUsage);
    EXPECT_FALSE(file_exists(report));
    std::remove(journal.c_str());
}

/**
 * The recovery guarantee against a real kill -9: a serial table3 run
 * stops itself (stall fault) on its third trial, is SIGKILLed while
 * stopped, and a --resume rerun without the fault replays the journaled
 * trials and commits the golden bytes, retiring the journal.
 */
TEST(Resume, SigkilledPlainRunResumesToTheGolden)
{
    const std::string out = temp_path("sigkill_resume.json");
    const pid_t pid = spawn_sim(
        {"run", "table3_detection", "--trials", "1", "--jobs", "1",
         "--json-out", out, "--inject-fault",
         "stall@CLFLUSH-free (Heavy Load):0"});
    ASSERT_GT(pid, 0);

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, WUNTRACED), pid);
    ASSERT_TRUE(WIFSTOPPED(status)) << "the stall fault never fired";

    // Every trial finished before the stall is durable in the journal.
    runner::CliOptions cli;
    cli.trials = 1;
    const scenario::SweepSpec spec =
        scenario::paper_registry().find("table3_detection")->make(cli);
    const std::vector<runner::TrialSpec> plan =
        scenario::make_sweep(spec, cli).plan_specs();
    const runner::JournalHeader header{spec.name, cli.sweep.master_seed,
                                       runner::plan_hash(plan)};
    EXPECT_GE(runner::read_journal(runner::journal_path(out), header, plan)
                  .size(),
              1u);

    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
    EXPECT_FALSE(file_exists(out)) << "a killed run must not commit";

    const std::string resume =
        std::string(ANVIL_SIM_PATH) +
        " run table3_detection --trials 1 --jobs 1 --resume --json-out " +
        out + " >/dev/null 2>&1";
    EXPECT_EQ(run_command(resume), 0);
    EXPECT_EQ(slurp(out), golden_table3());
    EXPECT_FALSE(file_exists(runner::journal_path(out)));
    EXPECT_TRUE(siblings_of(out).empty())
        << "stray file beside the report: " << siblings_of(out).front();
    std::remove(out.c_str());
}

#endif  // ANVIL_SIM_PATH

}  // namespace
}  // namespace anvil
