#include "runner/result_sink.hh"

#include <algorithm>
#include <utility>

#include "runner/json.hh"

namespace anvil::runner {
namespace {

void
write_stat(JsonWriter &json, const RunningStat &stat)
{
    json.field("count", stat.count());
    json.field("sum", stat.sum());
    json.field("mean", stat.mean());
    json.field("min", stat.min());
    json.field("max", stat.max());
    json.field("stddev", stat.stddev());
}

/** Adds @p from into @p into field by field, appending new fields. */
void
add_fields(StatFields &into, const StatFields &from)
{
    for (const auto &[field, v] : from) {
        auto it = std::find_if(into.begin(), into.end(),
                               [&](const auto &f) {
                                   return f.first == field;
                               });
        if (it == into.end())
            into.emplace_back(field, v);
        else
            it->second += v;
    }
}

}  // namespace

void
ScenarioAggregate::add(const TrialSpec &spec, const TrialOutcome &outcome)
{
    ++trials_;
    if (!outcome.ok()) {
        ++errors_;
        failures_.push_back(TrialFailure{spec.trial, spec.seed,
                                         outcome.status, outcome.error});
        return;
    }
    const TrialResult &result = outcome.result;
    for (const auto &[name, v] : result.values()) {
        auto it = std::find_if(values_.begin(), values_.end(),
                               [&](const ValueAgg &a) {
                                   return a.name == name;
                               });
        if (it == values_.end()) {
            values_.push_back(ValueAgg{name, RunningStat{}});
            it = values_.end() - 1;
        }
        it->stat.add(v);
    }
    for (const auto &[name, v] : result.counters()) {
        auto it = std::find_if(counters_.begin(), counters_.end(),
                               [&](const CounterAgg &a) {
                                   return a.name == name;
                               });
        if (it == counters_.end()) {
            counters_.push_back(CounterAgg{name, 0, RunningStat{}});
            it = counters_.end() - 1;
        }
        it->sum += v;
        it->per_trial.add(static_cast<double>(v));
    }
    for (const StatBlock &b : result.blocks()) {
        auto it = std::find_if(blocks_.begin(), blocks_.end(),
                               [&](const StatBlock &a) {
                                   return a.name == b.name;
                               });
        if (it == blocks_.end())
            blocks_.push_back(b);
        else
            add_fields(it->fields, b.fields);
    }
}

void
ScenarioAggregate::set_derived(std::string name, double v)
{
    for (NamedValue &d : derived_) {
        if (d.name == name) {
            d.value = v;
            return;
        }
    }
    derived_.push_back(NamedValue{std::move(name), v});
}

double
ScenarioAggregate::derived(std::string_view name, double fallback) const
{
    for (const NamedValue &d : derived_) {
        if (d.name == name)
            return d.value;
    }
    return fallback;
}

const RunningStat *
ScenarioAggregate::value_stat(std::string_view name) const
{
    for (const ValueAgg &a : values_) {
        if (a.name == name)
            return &a.stat;
    }
    return nullptr;
}

const StatBlock *
ScenarioAggregate::block(std::string_view name) const
{
    for (const StatBlock &b : blocks_) {
        if (b.name == name)
            return &b;
    }
    return nullptr;
}

std::uint64_t
ScenarioAggregate::counter_sum(std::string_view name) const
{
    for (const CounterAgg &a : counters_) {
        if (a.name == name)
            return a.sum;
    }
    return 0;
}

double
ScenarioAggregate::value_mean(std::string_view name, double fallback) const
{
    const RunningStat *stat = value_stat(name);
    return stat != nullptr && stat->count() > 0 ? stat->mean() : fallback;
}

void
ScenarioAggregate::write_json(JsonWriter &json) const
{
    json.begin_object();
    json.field("name", name_);
    json.field("trials", trials_);
    json.field("errors", errors_);
    // Only present when a trial failed, so fault-free sweep JSON is
    // byte-identical to what the pre-fault-tolerance runner emitted.
    if (!failures_.empty()) {
        json.key("failures").begin_array();
        for (const TrialFailure &f : failures_) {
            json.begin_object();
            json.field("trial", f.trial);
            json.field("seed", f.seed);
            json.field("status", to_string(f.status));
            json.field("error", f.error);
            json.end_object();
        }
        json.end_array();
    }
    json.key("values").begin_array();
    for (const ValueAgg &a : values_) {
        json.begin_object();
        json.field("name", a.name);
        write_stat(json, a.stat);
        json.end_object();
    }
    json.end_array();
    json.key("counters").begin_array();
    for (const CounterAgg &a : counters_) {
        json.begin_object();
        json.field("name", a.name);
        json.field("sum", a.sum);
        json.field("mean_per_trial", a.per_trial.mean());
        json.end_object();
    }
    json.end_array();
    for (const StatBlock &b : blocks_) {
        json.key(b.name).begin_object();
        for (const auto &[field, v] : b.fields)
            json.field(field, v);
        json.end_object();
    }
    if (!derived_.empty()) {
        json.key("derived").begin_array();
        for (const NamedValue &d : derived_) {
            json.begin_object();
            json.field("name", d.name);
            json.field("value", d.value);
            json.end_object();
        }
        json.end_array();
    }
    json.end_object();
}

void
ResultSink::add(const TrialSpec &spec, const TrialOutcome &outcome)
{
    scenario(spec.scenario).add(spec, outcome);
    ++total_trials_;
    if (!outcome.ok())
        ++total_errors_;
}

ScenarioAggregate &
ResultSink::scenario(std::string_view name)
{
    for (ScenarioAggregate &s : scenarios_) {
        if (s.name() == name)
            return s;
    }
    scenarios_.emplace_back(std::string(name));
    return scenarios_.back();
}

const ScenarioAggregate *
ResultSink::find(std::string_view name) const
{
    for (const ScenarioAggregate &s : scenarios_) {
        if (s.name() == name)
            return &s;
    }
    return nullptr;
}

ScenarioAggregate *
ResultSink::find(std::string_view name)
{
    return const_cast<ScenarioAggregate *>(
        std::as_const(*this).find(name));
}

void
ResultSink::write_json(std::ostream &os) const
{
    JsonWriter json(os);
    json.begin_object();
    json.field("schema", "anvil-sweep-v1");
    json.field("sweep", sweep_name_);
    json.field("master_seed", master_seed_);
    json.field("total_trials", total_trials_);
    json.field("total_errors", total_errors_);
    json.key("scenarios").begin_array();
    for (const ScenarioAggregate &s : scenarios_)
        s.write_json(json);
    json.end_array();
    json.end_object();
}

}  // namespace anvil::runner
