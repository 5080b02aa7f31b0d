/**
 * @file
 * The unit of parallel experimentation: one fully-isolated trial.
 *
 * A trial owns its entire simulated machine (MemorySystem + Anvil +
 * workloads), so trials share no mutable state and a sweep of them is
 * embarrassingly parallel. Determinism rests on the seed chain: every
 * random stream a trial uses is derived from (master seed, scenario name,
 * trial index) — never from global state, wall-clock time, or thread
 * identity — so any trial can be replayed serially, and a parallel sweep
 * aggregates to bit-identical results as a serial one.
 *
 * Fault tolerance rests on the same property: a trial that fails is
 * captured as a structured TrialOutcome (never an escaped exception) and
 * is never retried, since rerunning a pure function of its seed could
 * only reproduce the failure; a runaway trial is bounded by a Watchdog
 * counting simulated events — not wall-clock time — so timeouts are
 * reproducible too.
 */
#ifndef ANVIL_RUNNER_TRIAL_HH
#define ANVIL_RUNNER_TRIAL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hh"

namespace anvil::runner {

/** Identity of one trial within a sweep. */
struct TrialSpec {
    std::string scenario;    ///< row label, e.g. "CLFLUSH (Heavy Load)"
    std::uint64_t trial = 0; ///< index within the scenario
    std::uint64_t seed = 0;  ///< derived: trial_seed(master, scenario, trial)
    std::uint64_t global_index = 0;  ///< position in the whole sweep
};

/**
 * Derives the seed of trial @p trial of @p scenario from @p master_seed.
 * Stable across runs, platforms, and thread schedules.
 */
std::uint64_t trial_seed(std::uint64_t master_seed,
                         std::string_view scenario, std::uint64_t trial);

/**
 * Derives an independent named random stream from a trial seed, so one
 * trial can seed its VM layout, its workload, and its phase jitter from
 * decorrelated values.
 */
std::uint64_t sub_seed(std::uint64_t seed, std::string_view stream);

/**
 * Deterministic per-trial deadline: a budget of simulated events (memory
 * accesses). The trial body charges events via tick(); exhausting the
 * budget throws TimeoutError, which the sweep records as a timed-out
 * outcome. Counting simulated work instead of wall-clock time keeps the
 * abort point identical across machines, thread counts, and reruns.
 */
class Watchdog
{
  public:
    /** Sets the budget; 0 disarms (tick becomes a no-op). */
    void
    arm(std::uint64_t budget)
    {
        budget_ = budget;
        used_ = 0;
    }

    bool armed() const { return budget_ != 0; }
    std::uint64_t used() const { return used_; }
    std::uint64_t budget() const { return budget_; }

    /**
     * Charges @p n simulated events.
     * @throw TimeoutError once the budget is exhausted.
     */
    void
    tick(std::uint64_t n = 1)
    {
        if (budget_ == 0)
            return;
        used_ += n;
        if (used_ >= budget_) {
            // Built before the throw: with() returns Error&, and throwing
            // through that reference would slice away the TimeoutError
            // type the sweep's timed-out classification depends on.
            TimeoutError e("trial exceeded its simulated-event budget");
            e.with("budget", budget_);
            throw e;
        }
    }

  private:
    std::uint64_t budget_ = 0;
    std::uint64_t used_ = 0;
};

/** Everything a trial body may consult. Cheap to copy. */
class TrialContext
{
  public:
    explicit TrialContext(TrialSpec spec) : spec_(std::move(spec)) {}

    const TrialSpec &spec() const { return spec_; }
    std::uint64_t seed() const { return spec_.seed; }

    /** Named decorrelated stream seed (see sub_seed). */
    std::uint64_t
    seed_for(std::string_view stream) const
    {
        return sub_seed(spec_.seed, stream);
    }

    /**
     * The trial's deadline counter. Trial bodies that simulate machines
     * should charge one tick per simulated access (ScenarioBuilder wires
     * this automatically); unarmed watchdogs make tick() free.
     */
    Watchdog &watchdog() const { return watchdog_; }

  private:
    TrialSpec spec_;
    /// Charged through const contexts: the watchdog is bookkeeping about
    /// the trial's execution, not part of its observable inputs.
    mutable Watchdog watchdog_;
};

/** Ordered (field name, value) pairs of one stat block. */
using StatFields = std::vector<std::pair<std::string, std::uint64_t>>;

/**
 * A named group of event totals, such as a simulator component's stat
 * struct. Aggregated field by field (summed) and written as one JSON
 * object whose keys keep the fields' order.
 */
struct StatBlock {
    std::string name;
    StatFields fields;
};

/**
 * The measurements one trial produced: insertion-ordered named scalars
 * plus named stat blocks. Values are per-trial observations aggregated
 * into count/mean/min/max/stddev; counters and block fields are event
 * totals aggregated by summation.
 */
class TrialResult
{
  public:
    /** Records a per-trial observation (aggregated as a distribution). */
    void
    set_value(std::string name, double v)
    {
        values_.emplace_back(std::move(name), v);
    }

    /** Records an event total (aggregated by summation). */
    void
    set_counter(std::string name, std::uint64_t v)
    {
        counters_.emplace_back(std::move(name), v);
    }

    /**
     * Attaches the stat block @p name; a block of that name already
     * attached is replaced in place.
     */
    void
    set_block(std::string name, StatFields fields)
    {
        for (StatBlock &b : blocks_) {
            if (b.name == name) {
                b.fields = std::move(fields);
                return;
            }
        }
        blocks_.push_back(StatBlock{std::move(name), std::move(fields)});
    }

    const std::vector<std::pair<std::string, double>> &
    values() const
    {
        return values_;
    }
    const std::vector<std::pair<std::string, std::uint64_t>> &
    counters() const
    {
        return counters_;
    }
    const std::vector<StatBlock> &blocks() const { return blocks_; }

  private:
    std::vector<std::pair<std::string, double>> values_;
    std::vector<std::pair<std::string, std::uint64_t>> counters_;
    std::vector<StatBlock> blocks_;  ///< first-set order
};

/** How one trial ended. */
enum class TrialStatus : std::uint8_t {
    kOk = 0,        ///< result is valid
    kFailed = 1,    ///< an exception escaped the trial body
    kTimedOut = 2,  ///< the watchdog budget was exhausted
};

/** JSON name of a status: "ok", "failed" or "timed_out". */
std::string_view to_string(TrialStatus status);

/**
 * The structured record of one trial's execution: its classification,
 * the result (valid only when ok) and the rendered error chain (failed
 * or timed-out).
 */
struct TrialOutcome {
    TrialStatus status = TrialStatus::kOk;
    TrialResult result;
    std::string error;

    bool ok() const { return status == TrialStatus::kOk; }
};

}  // namespace anvil::runner

#endif  // ANVIL_RUNNER_TRIAL_HH
