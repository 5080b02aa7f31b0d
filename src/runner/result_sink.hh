/**
 * @file
 * Deterministic cross-trial aggregation and JSON report emission.
 *
 * The sink is fed completed trials strictly in sweep order (the Sweep
 * buffers parallel completions into per-trial slots first), so the
 * aggregates — and therefore the emitted JSON — are bit-identical
 * whether the trials ran on one thread or sixteen.
 */
#ifndef ANVIL_RUNNER_RESULT_SINK_HH
#define ANVIL_RUNNER_RESULT_SINK_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hh"
#include "runner/trial.hh"

namespace anvil::runner {

/**
 * Diagnostics of one failed (or timed-out) trial, preserved in the
 * sweep JSON so a failure is a record, not just a counter. The error
 * string is the rendered anvil::Error cause chain, which is a pure
 * function of the trial — so JSON stays byte-stable across reruns.
 */
struct TrialFailure {
    std::uint64_t trial = 0;
    std::uint64_t seed = 0;
    TrialStatus status = TrialStatus::kFailed;
    std::string error;
};

/** Everything accumulated for one scenario (one row of a paper table). */
class ScenarioAggregate
{
  public:
    explicit ScenarioAggregate(std::string name) : name_(std::move(name)) {}

    /** Folds one trial in (order matters; the sink guarantees it). */
    void add(const TrialSpec &spec, const TrialOutcome &outcome);

    /** Attaches a derived scalar (computed by a sweep's finalize hook). */
    void set_derived(std::string name, double v);

    /** A derived scalar, or @p fallback when it was never set. */
    double derived(std::string_view name, double fallback = 0.0) const;

    const std::string &name() const { return name_; }
    std::uint64_t trials() const { return trials_; }
    std::uint64_t errors() const { return errors_; }
    const std::vector<TrialFailure> &failures() const { return failures_; }

    /** Distribution of a named value, or nullptr if never recorded. */
    const RunningStat *value_stat(std::string_view name) const;

    /** Sum of a named counter over all trials (0 if never recorded). */
    std::uint64_t counter_sum(std::string_view name) const;

    /** Mean of a named value, or @p fallback when it was never recorded. */
    double value_mean(std::string_view name, double fallback = 0.0) const;

    /** Field-wise sums of a named stat block, or nullptr if never set. */
    const StatBlock *block(std::string_view name) const;

    /** Serializes this scenario as one JSON object. */
    void write_json(class JsonWriter &json) const;

  private:
    struct CounterAgg {
        std::string name;
        std::uint64_t sum = 0;
        RunningStat per_trial;
    };
    struct ValueAgg {
        std::string name;
        RunningStat stat;
    };

    std::string name_;
    std::uint64_t trials_ = 0;
    std::uint64_t errors_ = 0;
    std::vector<TrialFailure> failures_;  ///< one per failed trial
    std::vector<ValueAgg> values_;      ///< insertion order
    std::vector<CounterAgg> counters_;  ///< insertion order
    std::vector<StatBlock> blocks_;     ///< first-seen order, summed
    std::vector<NamedValue> derived_;   ///< insertion order
};

/** Orders scenarios and writes the sweep-level JSON document. */
class ResultSink
{
  public:
    /** Sweep-level metadata echoed into the JSON header. */
    void
    set_meta(std::string sweep_name, std::uint64_t master_seed)
    {
        sweep_name_ = std::move(sweep_name);
        master_seed_ = master_seed;
    }

    /** Folds in one finished trial (called in deterministic order). */
    void add(const TrialSpec &spec, const TrialOutcome &outcome);

    /**
     * Lookup; nullptr when no trial of @p name reached the sink (e.g.
     * a --replay-trial run of another scenario). Lookups never create a
     * scenario, so derived values cannot add empty rows to the report.
     */
    const ScenarioAggregate *find(std::string_view name) const;
    ScenarioAggregate *find(std::string_view name);

    const std::vector<ScenarioAggregate> &scenarios() const
    {
        return scenarios_;
    }
    std::uint64_t total_trials() const { return total_trials_; }
    std::uint64_t total_errors() const { return total_errors_; }

    /**
     * Emits the whole sweep as one JSON document (schema
     * "anvil-sweep-v1"). Deliberately excludes wall-clock time and job
     * count so output is invariant under parallelism.
     */
    void write_json(std::ostream &os) const;

  private:
    /** The scenario @p name, created on first use by add(). */
    ScenarioAggregate &scenario(std::string_view name);

    std::string sweep_name_ = "sweep";
    std::uint64_t master_seed_ = 0;
    std::vector<ScenarioAggregate> scenarios_;  ///< first-use order
    std::uint64_t total_trials_ = 0;
    std::uint64_t total_errors_ = 0;
};

}  // namespace anvil::runner

#endif  // ANVIL_RUNNER_RESULT_SINK_HH
