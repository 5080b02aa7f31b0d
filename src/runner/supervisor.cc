#include "runner/supervisor.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <thread>

#include "runner/journal.hh"
#include "runner/sweep.hh"

namespace anvil::runner {
namespace {

/// Every shard child re-executes the running binary.
constexpr const char *kShardExe = "/proc/self/exe";
/// Supervision loop poll period.
constexpr std::uint64_t kPollMs = 25;

std::uint64_t
now_ms()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** The indices of @p unit not yet durable, compressed back to ranges. */
std::vector<TrialRange>
subtract_done(const std::vector<TrialRange> &unit,
              const std::vector<bool> &done)
{
    std::vector<std::uint64_t> left;
    for (const TrialRange &range : unit) {
        for (std::uint64_t i = range.first; i <= range.last; ++i) {
            if (i >= done.size() || !done[i])
                left.push_back(i);
        }
    }
    return compress_indices(left);
}

/** fork+exec a shard child; SIGKILLed if the supervisor dies first. */
pid_t
spawn_child(const std::string &exe, const std::vector<std::string> &args)
{
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        throw Error("fork failed for shard child")
            .with("errno", std::strerror(errno));
    }
    if (pid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        ::execv(exe.c_str(), argv.data());
        ::_exit(127);  // exec failure; the supervisor maps this to Error
    }
    return pid;
}

const char *
describe_status(int status, std::string &storage)
{
    if (WIFSIGNALED(status)) {
        storage = "killed by signal " + std::to_string(WTERMSIG(status));
    } else if (WIFEXITED(status)) {
        storage = "exited with status " + std::to_string(WEXITSTATUS(status));
    } else {
        storage = "ended with raw status " + std::to_string(status);
    }
    return storage.c_str();
}

struct Slot {
    enum class State { kIdle, kRunning, kBackoff, kRetired };

    State state = State::kIdle;
    pid_t pid = -1;
    /// The work unit this slot currently owns (empty when idle).
    std::vector<TrialRange> unit;
    /// Consecutive deaths while holding the current unit.
    unsigned deaths = 0;
    std::uint64_t backoff_deadline_ms = 0;
    /// Journal-growth lease state.
    off_t last_size = -1;
    std::uint64_t last_growth_ms = 0;
};

}  // namespace

std::uint64_t
backoff_delay_ms(std::uint64_t base, unsigned attempt)
{
    if (attempt == 0)
        return 0;
    const unsigned shift = std::min(attempt - 1, 16u);
    return base << shift;
}

SupervisorReport
supervise(const std::vector<TrialSpec> &plan, const SweepOptions &sweep,
          const SupervisorCli &cli,
          const std::vector<std::string> &child_args)
{
    if (cli.shards == 0)
        throw Error("cannot supervise a campaign with zero shards");
    const std::uint64_t lease_interval =
        std::max<std::uint64_t>(1, cli.lease_timeout_ms / 4);

    SupervisorReport report;
    std::vector<bool> done(plan.size(), false);
    const std::uint64_t digest = plan_hash(plan);

    // Absorb whatever previous (possibly crashed) campaigns left behind:
    // every durable record in a shard journal is a trial nobody needs to
    // run again. A journal from a *different* campaign is a hard error —
    // silently mixing sweeps would corrupt the merge.
    const auto absorb_journal = [&](std::uint32_t k) {
        const JournalHeader expect{sweep.name, sweep.master_seed, digest,
                                   k, cli.shards};
        std::uint64_t fresh = 0;
        for (const JournalRecord &rec : read_journal(
                 journal_path(sweep.json_out, k, cli.shards), expect,
                 plan)) {
            const std::uint64_t i = rec.spec.global_index;
            if (!done[i]) {
                done[i] = true;
                ++fresh;
            }
        }
        return fresh;
    };
    std::uint64_t resumed = 0;
    for (std::uint32_t k = 0; k < cli.shards; ++k)
        resumed += absorb_journal(k);
    if (resumed != 0) {
        std::fprintf(stderr,
                     "[supervisor] resuming: %llu of %zu trial(s) already "
                     "durable in shard journals\n",
                     static_cast<unsigned long long>(resumed), plan.size());
    }

    // Initial assignment: slot k owns partition k, minus anything done.
    std::vector<Slot> slots(cli.shards);
    std::deque<std::vector<TrialRange>> queue;
    {
        const auto partitions = partition_trials(plan.size(), cli.shards);
        for (std::uint32_t k = 0; k < cli.shards; ++k) {
            std::vector<TrialRange> unit =
                subtract_done(partitions[k], done);
            if (!unit.empty())
                queue.push_back(std::move(unit));
        }
    }

    const auto outstanding = [&] {
        std::uint64_t n = 0;
        for (std::uint64_t i = 0; i < done.size(); ++i)
            n += done[i] ? 0 : 1;
        return n;
    };

    const auto launch = [&](std::uint32_t k) {
        Slot &slot = slots[k];
        std::vector<std::string> args;
        args.push_back(kShardExe);
        args.insert(args.end(), child_args.begin(), child_args.end());
        args.push_back("--shard-index");
        args.push_back(std::to_string(k));
        args.push_back("--shard-count");
        args.push_back(std::to_string(cli.shards));
        args.push_back("--shard-trials");
        args.push_back(to_string(slot.unit));
        args.push_back("--lease-interval-ms");
        args.push_back(std::to_string(lease_interval));
        slot.pid = spawn_child(kShardExe, args);
        slot.state = Slot::State::kRunning;
        slot.last_size = -1;
        slot.last_growth_ms = now_ms();
        std::fprintf(stderr,
                     "[supervisor] shard %u (pid %ld): running trial(s) "
                     "%s%s\n",
                     k, static_cast<long>(slot.pid),
                     to_string(slot.unit).c_str(),
                     slot.deaths != 0 ? " (respawn)" : "");
    };

    const auto reap = [&](std::uint32_t k, int status) {
        Slot &slot = slots[k];
        slot.pid = -1;
        if (WIFEXITED(status) && WEXITSTATUS(status) == 127) {
            throw Error("shard child could not exec the simulator binary")
                .with("exe", kShardExe);
        }
        // Whatever the exit path, the journal is the truth: every record
        // in it is durable (fsync'd before the trial counted as done).
        try {
            absorb_journal(k);
        } catch (const Error &e) {
            std::fprintf(stderr, "[supervisor] shard %u: journal unreadable "
                         "after exit: %s\n", k, e.what());
        }
        std::vector<TrialRange> remaining = subtract_done(slot.unit, done);
        if (remaining.empty()) {
            // Unit complete. Nonzero exits (trial failures) still count:
            // the failed trials are recorded, which is all a shard owes.
            slot.unit.clear();
            slot.deaths = 0;
            slot.state = Slot::State::kIdle;
            return;
        }
        std::string why;
        describe_status(status, why);
        slot.unit = std::move(remaining);
        ++slot.deaths;
        if (slot.deaths > cli.respawn_budget) {
            std::fprintf(stderr,
                         "[supervisor] shard %u: %s with trial(s) %s "
                         "outstanding; respawn budget (%u) exhausted — "
                         "retiring slot and requeueing its trials\n",
                         k, why.c_str(), to_string(slot.unit).c_str(),
                         cli.respawn_budget);
            queue.push_back(std::move(slot.unit));
            slot.unit.clear();
            slot.state = Slot::State::kRetired;
            ++report.retired_slots;
            ++report.requeues;
            return;
        }
        const std::uint64_t delay =
            backoff_delay_ms(cli.backoff_ms, slot.deaths);
        std::fprintf(stderr,
                     "[supervisor] shard %u: %s with trial(s) %s "
                     "outstanding; respawning in %llu ms (death %u/%u)\n",
                     k, why.c_str(), to_string(slot.unit).c_str(),
                     static_cast<unsigned long long>(delay), slot.deaths,
                     cli.respawn_budget);
        slot.state = Slot::State::kBackoff;
        slot.backoff_deadline_ms = now_ms() + delay;
    };

    const auto shutdown_children = [&] {
        for (std::uint32_t k = 0; k < slots.size(); ++k) {
            Slot &slot = slots[k];
            if (slot.state != Slot::State::kRunning)
                continue;
            // SIGCONT first: a stopped (wedged-by-SIGSTOP) child cannot
            // handle the drain request otherwise.
            ::kill(slot.pid, SIGCONT);
            ::kill(slot.pid, SIGTERM);
        }
        for (std::uint32_t k = 0; k < slots.size(); ++k) {
            Slot &slot = slots[k];
            if (slot.state != Slot::State::kRunning)
                continue;
            int status = 0;
            while (::waitpid(slot.pid, &status, 0) < 0 && errno == EINTR) {
            }
            reap(k, status);
        }
    };

    while (true) {
        if (shutdown_requested()) {
            std::fprintf(stderr, "[supervisor] shutdown requested; "
                         "draining shard children\n");
            shutdown_children();
            report.interrupted = true;
            break;
        }

        const std::uint64_t now = now_ms();
        bool any_running = false;
        bool any_waiting = false;

        for (std::uint32_t k = 0; k < slots.size(); ++k) {
            Slot &slot = slots[k];
            switch (slot.state) {
            case Slot::State::kRunning: {
                int status = 0;
                const pid_t got = ::waitpid(slot.pid, &status, WNOHANG);
                if (got == slot.pid) {
                    reap(k, status);
                    // A reap into backoff still holds work: without this
                    // the loop could see every other slot idle and exit
                    // with the respawn pending.
                    if (slot.state == Slot::State::kBackoff)
                        any_waiting = true;
                    break;
                }
                // Lease check: a live shard's journal keeps growing
                // (trial records or heartbeats). Stalled past the lease
                // timeout means wedged — SIGKILL works even on a child
                // stopped by SIGSTOP, which SIGTERM cannot reach.
                struct stat st {};
                const off_t size =
                    ::stat(journal_path(sweep.json_out, k, cli.shards).c_str(),
                           &st) == 0
                        ? st.st_size
                        : -1;
                if (size != slot.last_size) {
                    slot.last_size = size;
                    slot.last_growth_ms = now;
                } else if (now - slot.last_growth_ms >
                           cli.lease_timeout_ms) {
                    std::fprintf(
                        stderr,
                        "[supervisor] shard %u (pid %ld): lease expired "
                        "(journal silent for %llu ms) — killing wedged "
                        "shard\n",
                        k, static_cast<long>(slot.pid),
                        static_cast<unsigned long long>(
                            now - slot.last_growth_ms));
                    ::kill(slot.pid, SIGKILL);
                    slot.last_growth_ms = now;  // don't re-kill every poll
                }
                any_running = true;
                break;
            }
            case Slot::State::kBackoff:
                if (now >= slot.backoff_deadline_ms) {
                    ++report.respawns;
                    launch(k);
                    any_running = true;
                } else {
                    any_waiting = true;
                }
                break;
            case Slot::State::kIdle:
                if (!queue.empty()) {
                    slot.unit = subtract_done(queue.front(), done);
                    queue.pop_front();
                    slot.deaths = 0;
                    if (slot.unit.empty())
                        break;  // requeued unit finished elsewhere
                    launch(k);
                    any_running = true;
                }
                break;
            case Slot::State::kRetired:
                break;
            }
        }

        if (!any_running && !any_waiting && queue.empty())
            break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kPollMs));
    }

    report.outstanding = outstanding();
    report.complete = report.outstanding == 0 && !report.interrupted;
    if (report.complete) {
        std::fprintf(stderr,
                     "[supervisor] campaign complete: %zu trial(s) durable "
                     "across %u shard journal(s), %u respawn(s), %u "
                     "requeue(s)\n",
                     plan.size(), cli.shards, report.respawns,
                     report.requeues);
    } else {
        std::fprintf(stderr,
                     "[supervisor] campaign incomplete: %llu trial(s) "
                     "outstanding (%s); shard journals kept — rerun "
                     "`supervise` to continue\n",
                     static_cast<unsigned long long>(report.outstanding),
                     report.interrupted ? "shutdown requested"
                                        : "every slot retired");
    }
    return report;
}

}  // namespace anvil::runner
