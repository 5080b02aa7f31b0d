/**
 * @file
 * The paper catalog: every table/figure of the ANVIL evaluation as a
 * registered SweepSpec factory. Each factory transcribes the exact cell
 * grid, seed streams, phase jitter, run mode, and output list the
 * original hand-written bench used, so anvil-sim reproduces the
 * historical JSON byte for byte for a fixed master seed. Beside each
 * sweep's finalize hook sits its render hook: the paper's table, with
 * the paper's values next to the cells they describe.
 */
#include <algorithm>
#include <functional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "cache/flat_replacement.hh"
#include "common/table.hh"
#include "runner/options.hh"
#include "runner/result_sink.hh"
#include "scenario/registry.hh"
#include "workload/profile.hh"

namespace anvil::scenario {
namespace {

using runner::ResultSink;
using runner::ScenarioAggregate;

/**
 * @p format applied to cell @p name of @p sink, or "-" when no trial of
 * that cell reached the sink (e.g. a --replay-trial run of another cell).
 */
std::string
cell_text(const ResultSink &sink, const std::string &name,
          const std::function<std::string(const ScenarioAggregate &)> &format)
{
    const ScenarioAggregate *agg = sink.find(name);
    return agg != nullptr ? format(*agg) : "-";
}

/** Derived scalar @p metric of cell @p name to @p digits places, or "-". */
std::string
derived_text(const ResultSink &sink, const std::string &name,
             const char *metric, int digits)
{
    return cell_text(sink, name, [&](const ScenarioAggregate &agg) {
        return TextTable::fmt(agg.derived(metric), digits);
    });
}

/** Mean of value @p metric of cell @p name to @p digits places, or "-". */
std::string
mean_text(const ResultSink &sink, const std::string &name,
          const char *metric, int digits)
{
    return cell_text(sink, name, [&](const ScenarioAggregate &agg) {
        return TextTable::fmt(agg.value_mean(metric), digits);
    });
}

/** Sum of value @p metric over @p agg's trials (0 if never recorded). */
double
value_sum(const ScenarioAggregate &agg, const char *metric)
{
    const RunningStat *stat = agg.value_stat(metric);
    return stat != nullptr ? stat->sum() : 0.0;
}

/**
 * Sets derived @p metric on @p cell: its mean run time over that of
 * @p base_cell (0 when the base is absent or took no time). A no-op when
 * the run has no trial of @p cell.
 */
void
set_run_ratio(ResultSink &sink, const std::string &cell,
              const std::string &base_cell, const char *metric)
{
    ScenarioAggregate *agg = sink.find(cell);
    if (agg == nullptr)
        return;
    const ScenarioAggregate *base_agg = sink.find(base_cell);
    const double base =
        base_agg != nullptr ? base_agg->value_mean("run_ms") : 0.0;
    const double t = agg->value_mean("run_ms");
    agg->set_derived(metric, base > 0.0 ? t / base : 0.0);
}

/** Table 3's cells in row order, with the paper's measured row. */
constexpr struct Table3Cell {
    const char *label;
    bool clflush_free;
    bool heavy;
    const char *paper;  ///< detect time / refreshes per 64 ms / flips
} kTable3Cells[] = {
    {"CLFLUSH (Heavy Load)", false, true, "12.8 ms / 12.35 / 0"},
    {"CLFLUSH (Light Load)", false, false, "12.3 ms / 10.3 / 0"},
    {"CLFLUSH-free (Heavy Load)", true, true, "35.3 ms / 4.53 / 0"},
    {"CLFLUSH-free (Light Load)", true, false, "22.85 ms / 5.10 / 0"},
};

SweepFactory
table3_detection()
{
    return {
        "table3_detection",
        "Table 2/3: detection latency, selective refreshes, and bit flips "
        "for CLFLUSH and CLFLUSH-free attacks under light and heavy load",
        "",
        [](const runner::CliOptions &) {
            SweepSpec sweep;
            sweep.name = "table3_detection";
            sweep.default_trials = 6;
            for (const Table3Cell &cell : kTable3Cells) {
                ScenarioSpec s;
                s.name = cell.label;
                // Per-trial layout / refresh-phase variation.
                s.pre_detector = {us(137), us(6000), "phase"};
                s.tenants = {attacker_tenant(
                    {cell.clflush_free ? AttackKind::kClflushFreeDoubleSided
                                       : AttackKind::kClflushDoubleSided})};
                if (cell.heavy) {
                    // The paper runs mcf + libquantum + omnetpp.
                    for (const char *name :
                         {"mcf", "libquantum", "omnetpp"}) {
                        s.tenants.push_back(
                            workload_tenant({name, name, false}));
                    }
                }
                s.detector = detector::AnvilConfig::baseline();
                // Let the detector free-run before the attack begins so
                // the attack starts at an arbitrary window phase.
                s.pre_attack = {ms(1), us(4000), "attack-phase"};
                s.run.mode = RunMode::kInterleaveFor;
                s.run.duration = ms(128);  // two refresh periods
                s.outputs = {Output::kFlips,
                             Output::kDetections,
                             Output::kSelectiveRefreshes,
                             Output::kAttackMs,
                             Output::kDetectMs,
                             Output::kAnvilStats,
                             Output::kDramStats};
                sweep.cells.push_back(std::move(s));
            }
            sweep.finalize = [](ResultSink &sink) {
                for (const Table3Cell &cell : kTable3Cells) {
                    ScenarioAggregate *agg = sink.find(cell.label);
                    if (agg == nullptr)
                        continue;
                    const double attack_ms_total =
                        value_sum(*agg, "attack_ms");
                    const std::uint64_t refreshes =
                        agg->counter_sum("selective_refreshes");
                    agg->set_derived("avg_detect_ms",
                                     agg->value_mean("detect_ms", -1.0));
                    agg->set_derived(
                        "refreshes_per_64ms",
                        attack_ms_total > 0.0
                            ? static_cast<double>(refreshes) /
                                  (attack_ms_total / 64.0)
                            : 0.0);
                }
            };
            sweep.render = [](const ResultSink &sink, std::ostream &os) {
                const detector::AnvilConfig config =
                    detector::AnvilConfig::baseline();
                TextTable params("Table 2: Rowhammer Detector Parameters");
                params.set_header({"Parameter", "Value", "Paper"});
                params.add_row(
                    {"LLC_MISS_THRESHOLD",
                     TextTable::fmt_count(config.llc_miss_threshold),
                     "20K"});
                params.add_row({"Miss Count Duration (tc)",
                                TextTable::fmt(to_ms(config.tc), 0) + " ms",
                                "6 ms"});
                params.add_row({"Sampling Duration (ts)",
                                TextTable::fmt(to_ms(config.ts), 0) + " ms",
                                "6 ms"});
                params.add_row(
                    {"Sampling rate",
                     TextTable::fmt(config.samples_per_sec, 0) + "/s",
                     "5000/s (~30 per 6 ms)"});
                params.print(os);

                TextTable table3("Table 3: Rowhammer Detection Results");
                table3.set_header({"Benchmark", "Avg Time to Detect",
                                   "Refreshes per 64 ms", "Total Bit Flips",
                                   "Paper"});
                for (const Table3Cell &cell : kTable3Cells) {
                    const ScenarioAggregate *agg = sink.find(cell.label);
                    if (agg == nullptr) {
                        table3.add_row(
                            {cell.label, "-", "-", "-", cell.paper});
                        continue;
                    }
                    table3.add_row(
                        {cell.label,
                         TextTable::fmt(agg->derived("avg_detect_ms"), 1) +
                             " ms",
                         TextTable::fmt(agg->derived("refreshes_per_64ms"),
                                        2),
                         TextTable::fmt_count(agg->counter_sum("flips")),
                         cell.paper});
                }
                table3.print(os);
            };
            return sweep;
        },
    };
}

/** Shared shape of the Table 4 / Table 5 FP-rate cells. */
ScenarioSpec
false_positive_cell(std::string name, const std::string &benchmark,
                    const detector::AnvilConfig &config, double run_sec)
{
    ScenarioSpec s;
    s.name = std::move(name);
    s.tenants = {workload_tenant(
        {benchmark, "workload", /*boost_thrash=*/true})};
    s.detector_before_workloads = true;
    s.detector = config;
    s.run.mode = RunMode::kInterleaveFor;
    s.run.duration = seconds(run_sec);
    return s;
}

/** Table 4's benchmarks in row order, with the paper's refreshes/sec. */
constexpr struct Table4Row {
    const char *name;
    double paper;
} kTable4Rows[] = {
    {"astar", 0.10},      {"bzip2", 1.05},   {"gcc", 0.71},
    {"gobmk", 0.19},      {"h264ref", 0.00}, {"hmmer", 0.00},
    {"libquantum", 0.06}, {"mcf", 0.01},     {"omnetpp", 0.02},
    {"perlbench", 0.00},  {"sjeng", 0.00},   {"xalancbmk", 0.05},
};

SweepFactory
table4_false_positives()
{
    return {
        "table4_false_positives",
        "Table 4: false-positive refresh rate of the twelve SPEC2006 "
        "integer benchmarks under ANVIL-baseline",
        "[run_seconds]",
        [](const runner::CliOptions &cli) {
            const double run_sec = cli.positional_double(0, 3.0);
            SweepSpec sweep;
            sweep.name = "table4_false_positives";
            sweep.default_trials = 1;
            for (const Table4Row &row : kTable4Rows) {
                ScenarioSpec s = false_positive_cell(
                    row.name, row.name, detector::AnvilConfig::baseline(),
                    run_sec);
                s.outputs = {Output::kFpPerSec, Output::kBoost,
                             Output::kFalsePositiveRefreshes,
                             Output::kAnvilStats, Output::kDramStats};
                sweep.cells.push_back(std::move(s));
            }
            sweep.render = [run_sec](const ResultSink &sink,
                                     std::ostream &os) {
                TextTable table4("Table 4: Rate of False Positive Refreshes "
                                 "(ANVIL-baseline, " +
                                 TextTable::fmt(run_sec, 1) +
                                 " s per benchmark, rate-boosted sampling)");
                table4.set_header({"Benchmark", "Refreshes/sec", "Paper"});
                for (const Table4Row &row : kTable4Rows) {
                    table4.add_row({row.name,
                                    mean_text(sink, row.name, "fp_per_sec", 2),
                                    TextTable::fmt(row.paper, 2)});
                }
                table4.print(os);
            };
            return sweep;
        },
    };
}

/** Table 5's benchmarks in row order, with the paper's refreshes/sec. */
constexpr struct Table5Row {
    const char *name;
    double paper_light;
    double paper_heavy;
} kTable5Rows[] = {
    {"bzip2", 1.61, 1.09},      {"gcc", 7.12, 1.88},
    {"gobmk", 0.28, 0.84},      {"libquantum", 0.13, 0.08},
    {"perlbench", 0.06, 0.00},
};

SweepFactory
table5_fp_sensitivity()
{
    return {
        "table5_fp_sensitivity",
        "Table 5: false-positive refresh rate under ANVIL-light and "
        "ANVIL-heavy on the Figure-4 benchmark subset",
        "[run_seconds]",
        [](const runner::CliOptions &cli) {
            const double run_sec = cli.positional_double(0, 3.0);
            SweepSpec sweep;
            sweep.name = "table5_fp_sensitivity";
            sweep.default_trials = 1;
            const struct {
                const char *label;
                detector::AnvilConfig config;
            } configs[] = {
                {"light", detector::AnvilConfig::light()},
                {"heavy", detector::AnvilConfig::heavy()},
            };
            for (const Table5Row &row : kTable5Rows) {
                for (const auto &c : configs) {
                    ScenarioSpec s = false_positive_cell(
                        std::string(row.name) + "/" + c.label, row.name,
                        c.config, run_sec);
                    s.outputs = {Output::kFpPerSec,
                                 Output::kFalsePositiveRefreshes,
                                 Output::kAnvilStats};
                    sweep.cells.push_back(std::move(s));
                }
            }
            sweep.render = [run_sec](const ResultSink &sink,
                                     std::ostream &os) {
                TextTable table5("Table 5: False positive refreshes/sec "
                                 "under ANVIL-light and ANVIL-heavy (" +
                                 TextTable::fmt(run_sec, 1) +
                                 " s per cell)");
                table5.set_header({"Benchmark", "ANVIL-light",
                                   "ANVIL-heavy", "Paper (light / heavy)"});
                for (const Table5Row &row : kTable5Rows) {
                    const std::string name = row.name;
                    table5.add_row(
                        {name,
                         mean_text(sink, name + "/light", "fp_per_sec", 2),
                         mean_text(sink, name + "/heavy", "fp_per_sec", 2),
                         TextTable::fmt(row.paper_light, 2) + " / " +
                             TextTable::fmt(row.paper_heavy, 2)});
                }
                table5.print(os);
            };
            return sweep;
        },
    };
}

constexpr const char *kFig4Benchmarks[] = {"bzip2", "gcc", "gobmk",
                                           "libquantum", "perlbench"};

/// Detector settings of the Fig. 4 columns, each normalized to "none".
constexpr const char *kFig4Detectors[] = {"baseline", "light", "heavy"};

/**
 * Section 4.5: "a future scenario where bit flips can occur with 110K
 * DRAM row accesses", in cell and table order.
 */
constexpr struct FutureCase {
    const char *name;
    bool spread;
    detector::AnvilConfig (*config)();
    const char *attack;        ///< table text
    const char *config_label;  ///< table text
    const char *paper;
} kFutureCases[] = {
    {"future/fast/heavy", false, &detector::AnvilConfig::heavy,
     "fast (full speed, flips in ~7 ms)", "ANVIL-heavy",
     "caught by ANVIL-heavy"},
    {"future/fast/baseline", false, &detector::AnvilConfig::baseline,
     "fast (full speed, flips in ~7 ms)", "ANVIL-baseline",
     "needs smaller windows"},
    {"future/spread/light", true, &detector::AnvilConfig::light,
     "spread out (just over 10K misses/6 ms)", "ANVIL-light",
     "caught by ANVIL-light"},
    {"future/spread/baseline", true, &detector::AnvilConfig::baseline,
     "spread out (just over 10K misses/6 ms)", "ANVIL-baseline",
     "evades the 20K threshold"},
};

SweepFactory
fig4_sensitivity()
{
    return {
        "fig4_sensitivity",
        "Figure 4 + Section 4.5: slowdown sensitivity of ANVIL-baseline/"
        "-light/-heavy, plus future-module (110K-access) attack scenarios",
        "[ops]",
        [](const runner::CliOptions &cli) {
            const std::uint64_t ops = static_cast<std::uint64_t>(
                cli.positional_double(0, 4000000.0));
            SweepSpec sweep;
            sweep.name = "fig4_sensitivity";
            sweep.default_trials = 1;

            const struct {
                const char *label;
                std::optional<detector::AnvilConfig> config;
            } settings[] = {
                {"none", std::nullopt},
                {"baseline", detector::AnvilConfig::baseline()},
                {"light", detector::AnvilConfig::light()},
                {"heavy", detector::AnvilConfig::heavy()},
            };
            for (const char *name : kFig4Benchmarks) {
                for (const auto &setting : settings) {
                    ScenarioSpec s;
                    s.name = std::string(name) + "/" + setting.label;
                    s.tenants = {workload_tenant({name, "workload", false})};
                    s.detector_before_workloads = true;
                    s.detector = setting.config;
                    s.run.mode = RunMode::kWorkloadOps;
                    s.run.ops = ops;
                    s.outputs = {Output::kRunMs, Output::kOps,
                                 Output::kAnvilStats, Output::kDramStats};
                    sweep.cells.push_back(std::move(s));
                }
            }

            // The future-module cells predate attack-lifetime
            // ground-truth scoping; kUnlabeled keeps their committed
            // JSON stable.
            for (const FutureCase &c : kFutureCases) {
                ScenarioSpec s;
                s.name = c.name;
                s.system.dram.flip_threshold = 200000;  // 55 K per side
                s.detector = c.config();
                s.ground_truth = GroundTruth::kUnlabeled;
                s.tenants = {
                    attacker_tenant({AttackKind::kClflushDoubleSided})};
                s.run.mode = RunMode::kHammerUntilFlipOrDeadline;
                s.run.duration = ms(200);
                // Spread ~110 K total accesses across a whole refresh
                // period: rate just above 10 K misses / 6 ms, below 20 K.
                s.run.step_gap = c.spread ? ns(700) : 0;
                s.outputs = {Output::kFlips, Output::kDetections,
                             Output::kAnvilStats};
                s.fixed_trials = 1;
                sweep.cells.push_back(std::move(s));
            }

            sweep.finalize = [](ResultSink &sink) {
                for (const char *name : kFig4Benchmarks) {
                    const std::string benchmark = name;
                    for (const char *label : kFig4Detectors) {
                        set_run_ratio(sink, benchmark + "/" + label,
                                      benchmark + "/none", "normalized");
                    }
                }
            };
            sweep.render = [ops](const ResultSink &sink, std::ostream &os) {
                TextTable fig4("Figure 4: Normalized execution time under "
                               "ANVIL-baseline / -light / -heavy (" +
                               TextTable::fmt_count(ops) +
                               " ops/benchmark)");
                fig4.set_header({"Benchmark", "ANVIL-baseline",
                                 "ANVIL-light", "ANVIL-heavy",
                                 "Paper: heavy costs most (up to ~1.08)"});
                for (const char *name : kFig4Benchmarks) {
                    std::vector<std::string> row{name};
                    for (const char *label : kFig4Detectors) {
                        row.push_back(derived_text(
                            sink, std::string(name) + "/" + label,
                            "normalized", 4));
                    }
                    row.push_back("");
                    fig4.add_row(std::move(row));
                }
                fig4.print(os);

                TextTable future("Section 4.5: future-attack scenarios "
                                 "(module flips at 110K accesses)");
                future.set_header({"Attack", "Config", "Bit flips",
                                   "Detections", "Paper"});
                for (const FutureCase &c : kFutureCases) {
                    const ScenarioAggregate *agg = sink.find(c.name);
                    if (agg == nullptr) {
                        future.add_row({c.attack, c.config_label, "-", "-",
                                        c.paper});
                        continue;
                    }
                    future.add_row(
                        {c.attack, c.config_label,
                         agg->counter_sum("flips") != 0 ? "FLIPPED" : "0",
                         TextTable::fmt_count(agg->counter_sum("detections")),
                         c.paper});
                }
                future.print(os);
            };
            return sweep;
        },
    };
}

/** Shared shape of the hammer-to-first-flip cells (Table 1 family). */
ScenarioSpec
attack_cell(std::string name, AttackKind kind, Tick refresh_period)
{
    ScenarioSpec s;
    s.name = std::move(name);
    s.system.dram.refresh_period = refresh_period;
    // These cells characterize the fixed reference module; the layout is
    // not a random variable.
    s.seed_vm_from_trial = false;
    s.tenants = {attacker_tenant({kind})};
    s.run.mode = RunMode::kHammerToFirstFlip;
    s.run.duration = ms(16);  // grace beyond one refresh period
    s.outputs = {Output::kFlipped, Output::kAggressorAccesses,
                 Output::kFlipMs};
    return s;
}

/** One hammer-to-first-flip row of Table 1 or the refresh-rate study. */
struct AttackRow {
    const char *cell;
    AttackKind kind;
    double refresh_ms;
    const char *label;
    const char *paper;
};

/// Table 1 (64 ms refresh), in cell and table order.
constexpr AttackRow kTable1Rows[] = {
    {"single-sided/64ms", AttackKind::kClflushSingleSided, 64,
     "Single-Sided with CLFLUSH", "400K / 58 ms"},
    {"double-sided/64ms", AttackKind::kClflushDoubleSided, 64,
     "Double-Sided with CLFLUSH", "220K / 15 ms"},
    {"clflush-free/64ms", AttackKind::kClflushFreeDoubleSided, 64,
     "Double-Sided without CLFLUSH", "220K / 45 ms"},
};

/// Section 2.1 / 5.2.1: the same attacks under faster refresh.
constexpr AttackRow kRefreshRows[] = {
    {"double-sided/32ms", AttackKind::kClflushDoubleSided, 32,
     "Double-Sided with CLFLUSH", "flips (15 ms < 32 ms)"},
    {"double-sided/16ms", AttackKind::kClflushDoubleSided, 16,
     "Double-Sided with CLFLUSH", "flips (Section 5.2.1)"},
    {"single-sided/32ms", AttackKind::kClflushSingleSided, 32,
     "Single-Sided with CLFLUSH", "defeated"},
    {"clflush-free/32ms", AttackKind::kClflushFreeDoubleSided, 32,
     "Double-Sided without CLFLUSH", "defeated (45 ms > 32 ms)"},
};

SweepFactory
table1_attacks()
{
    return {
        "table1_attacks",
        "Table 1 + Section 2.1: minimum accesses and time-to-flip per "
        "hammer technique, and the refresh-rate arms race",
        "",
        [](const runner::CliOptions &) {
            SweepSpec sweep;
            sweep.name = "table1_attacks";
            sweep.default_trials = 1;
            for (const AttackRow &row : kTable1Rows) {
                sweep.cells.push_back(
                    attack_cell(row.cell, row.kind, ms(row.refresh_ms)));
            }
            for (const AttackRow &row : kRefreshRows) {
                sweep.cells.push_back(
                    attack_cell(row.cell, row.kind, ms(row.refresh_ms)));
            }
            sweep.render = [](const ResultSink &sink, std::ostream &os) {
                TextTable table1("Table 1: Rowhammer Attack Characteristics "
                                 "(64 ms refresh)");
                table1.set_header({"Hammer Technique",
                                   "Min DRAM Row Accesses",
                                   "Time to First Bit Flip", "Paper"});
                for (const AttackRow &row : kTable1Rows) {
                    const ScenarioAggregate *agg = sink.find(row.cell);
                    if (agg == nullptr) {
                        table1.add_row({row.label, "-", "-", row.paper});
                        continue;
                    }
                    const bool flipped = agg->counter_sum("flipped") != 0;
                    table1.add_row(
                        {row.label,
                         flipped ? TextTable::fmt_count(
                                       agg->counter_sum("aggressor_accesses"))
                                 : "no flip",
                         flipped ? TextTable::fmt(agg->value_mean("flip_ms"),
                                                  1) +
                                       " ms"
                                 : "-",
                         row.paper});
                }
                table1.print(os);

                TextTable refresh("Section 2.1 / 5.2.1: attacks vs. "
                                  "increased refresh rates");
                refresh.set_header({"Hammer Technique", "Refresh Period",
                                    "Outcome", "Paper"});
                for (const AttackRow &row : kRefreshRows) {
                    const ScenarioAggregate *agg = sink.find(row.cell);
                    std::string outcome = "-";
                    if (agg != nullptr) {
                        outcome = agg->counter_sum("flipped") == 0
                                      ? "no flip"
                                      : "FLIPPED at " +
                                            TextTable::fmt(
                                                agg->value_mean("flip_ms"),
                                                1) +
                                            " ms";
                    }
                    refresh.add_row(
                        {row.label,
                         TextTable::fmt(row.refresh_ms, 0) + " ms",
                         outcome, row.paper});
                }
                refresh.print(os);
            };
            return sweep;
        },
    };
}

/// LLC policies of the Fig. 1b ablation; Bit-PLRU is the paper's LLC.
constexpr cache::ReplPolicy kFig1Policies[] = {
    cache::ReplPolicy::kBitPlru, cache::ReplPolicy::kLru,
    cache::ReplPolicy::kNru,     cache::ReplPolicy::kTreePlru,
    cache::ReplPolicy::kSrrip,   cache::ReplPolicy::kRandom,
};

/** The Fig. 1b cell measuring the pattern under LLC @p policy. */
std::string
pattern_cell(cache::ReplPolicy policy)
{
    return std::string("pattern/") + cache::to_string(policy);
}

/** Fig. 1b's double-sided hammers per refresh period, as a count. */
std::string
hammers_text(const ScenarioAggregate &agg)
{
    return TextTable::fmt_count(static_cast<std::uint64_t>(
        agg.value_mean("hammers_per_refresh")));
}

SweepFactory
fig1_pattern()
{
    return {
        "fig1_pattern",
        "Figure 1b / Section 2.2: CLFLUSH-free eviction pattern cost "
        "model, with the LLC replacement-policy ablation",
        "",
        [](const runner::CliOptions &) {
            SweepSpec sweep;
            sweep.name = "fig1_pattern";
            sweep.default_trials = 1;
            for (const cache::ReplPolicy policy : kFig1Policies) {
                ScenarioSpec s;
                s.name = pattern_cell(policy);
                s.system.cache.llc_policy = policy;
                // Tree-PLRU is defined for 2^k ways only; its cell runs
                // the nearest such LLC, 16 ways (4 MB).
                if (policy == cache::ReplPolicy::kTreePlru)
                    s.system.cache.llc_ways = 16;
                s.seed_vm_from_trial = false;
                s.tenants = {
                    attacker_tenant({AttackKind::kClflushFreeDoubleSided})};
                s.run.mode = RunMode::kPatternMeasure;
                s.outputs = {Output::kMissesPerIter,
                             Output::kAccessesPerIter,
                             Output::kNsPerIter,
                             Output::kCyclesPerIter,
                             Output::kHammersPerRefresh,
                             Output::kAggressorActShare};
                sweep.cells.push_back(std::move(s));
            }
            sweep.render = [](const ResultSink &sink, std::ostream &os) {
                const std::string bitplru =
                    pattern_cell(cache::ReplPolicy::kBitPlru);
                const auto mean = [&](const char *metric, int digits) {
                    return mean_text(sink, bitplru, metric, digits);
                };
                TextTable cost("Figure 1b / Section 2.2: CLFLUSH-free "
                               "eviction pattern cost model (Bit-PLRU LLC)");
                cost.set_header({"Metric", "Measured", "Paper"});
                cost.add_row({"LLC accesses / iteration",
                              mean("accesses_per_iter", 1),
                              "~20-26 (13-address eviction sets)"});
                cost.add_row({"LLC misses / iteration (both aggressors)",
                              mean("misses_per_iter", 2), "2"});
                cost.add_row({"cycles / iteration",
                              mean("cycles_per_iter", 0), "880 (estimate)"});
                cost.add_row({"ns / iteration", mean("ns_per_iter", 0),
                              "338 (estimate) - 409 (measured)"});
                const auto share = [](const ScenarioAggregate &agg) {
                    return TextTable::fmt(
                               100.0 * agg.value_mean("aggressor_act_share"),
                               1) +
                           " %";
                };
                cost.add_row({"double-sided hammers per 64 ms",
                              cell_text(sink, bitplru, hammers_text),
                              "up to 190,000"});
                cost.add_row({"aggressor share of DRAM activations",
                              cell_text(sink, bitplru, share),
                              "high (precise misses are critical)"});
                cost.print(os);

                TextTable ablation("Ablation: the same pattern vs. other "
                                   "LLC replacement policies");
                ablation.set_header({"LLC policy", "misses/iter", "ns/iter",
                                     "hammers / 64 ms",
                                     "attack viable (>110K)?"});
                for (const cache::ReplPolicy policy : kFig1Policies) {
                    const char *name = cache::to_string(policy);
                    const ScenarioAggregate *agg =
                        sink.find(pattern_cell(policy));
                    if (agg == nullptr) {
                        ablation.add_row({name, "-", "-", "-", "-"});
                        continue;
                    }
                    ablation.add_row(
                        {name,
                         TextTable::fmt(agg->value_mean("misses_per_iter"),
                                        2),
                         TextTable::fmt(agg->value_mean("ns_per_iter"), 0),
                         hammers_text(*agg),
                         agg->value_mean("hammers_per_refresh") > 110000
                             ? "yes"
                             : "no"});
                }
                ablation.print(os);
            };
            return sweep;
        },
    };
}

SweepFactory
fig3_overhead()
{
    return {
        "fig3_overhead",
        "Figure 3: benign slowdown of ANVIL vs a doubled refresh rate "
        "over the SPEC2006 integer suite",
        "[ops]",
        [](const runner::CliOptions &cli) {
            const std::uint64_t ops = static_cast<std::uint64_t>(
                cli.positional_double(0, 4000000.0));
            SweepSpec sweep;
            sweep.name = "fig3_overhead";
            sweep.default_trials = 1;
            const struct {
                const char *label;
                Tick refresh_period;
                bool with_anvil;
            } settings[] = {
                {"base", ms(64), false},
                {"anvil", ms(64), true},
                {"double-refresh", ms(32), false},
            };
            for (const auto &profile : workload::spec2006_int()) {
                for (const auto &setting : settings) {
                    ScenarioSpec s;
                    s.name = profile.name + "/" + setting.label;
                    s.system.dram.refresh_period =
                        setting.refresh_period;
                    // Historic fixed-seed methodology: default VM layout
                    // and each profile's built-in workload seed.
                    s.seed_vm_from_trial = false;
                    s.tenants = {workload_tenant({profile.name, "", false})};
                    s.detector_before_workloads = true;
                    if (setting.with_anvil)
                        s.detector = detector::AnvilConfig::baseline();
                    s.run.mode = RunMode::kWorkloadOps;
                    s.run.ops = ops;
                    s.outputs = {Output::kRunMs, Output::kOps,
                                 Output::kAnvilStats,
                                 Output::kDramStats};
                    sweep.cells.push_back(std::move(s));
                }
            }
            sweep.finalize = [](ResultSink &sink) {
                for (const auto &profile : workload::spec2006_int()) {
                    for (const char *label : {"anvil", "double-refresh"}) {
                        set_run_ratio(sink, profile.name + "/" + label,
                                      profile.name + "/base", "normalized");
                    }
                }
            };
            sweep.render = [ops](const ResultSink &sink, std::ostream &os) {
                TextTable fig3("Figure 3: Normalized execution time "
                               "(baseline = unprotected, 64 ms refresh; " +
                               TextTable::fmt_count(ops) +
                               " ops/benchmark)");
                fig3.set_header({"Benchmark", "ANVIL", "Double Refresh",
                                 "Paper (ANVIL peak 1.032, avg 1.0117)"});
                // Mean (and ANVIL peak) over the benchmarks in the run.
                struct Column {
                    double sum = 0.0;
                    double peak = 0.0;
                    int count = 0;
                    std::string add(const ScenarioAggregate *agg)
                    {
                        if (agg == nullptr)
                            return "-";
                        const double norm = agg->derived("normalized");
                        sum += norm;
                        peak = std::max(peak, norm);
                        ++count;
                        return TextTable::fmt(norm, 4);
                    }
                    std::string mean() const
                    {
                        return count != 0 ? TextTable::fmt(sum / count, 4)
                                          : "-";
                    }
                } anvil, refresh;
                for (const auto &profile : workload::spec2006_int()) {
                    fig3.add_row(
                        {profile.name,
                         anvil.add(sink.find(profile.name + "/anvil")),
                         refresh.add(
                             sink.find(profile.name + "/double-refresh")),
                         ""});
                }
                fig3.add_row({"average", anvil.mean(), refresh.mean(),
                              "ANVIL avg 1.0117"});
                fig3.add_row({"peak (ANVIL)",
                              anvil.count != 0 ? TextTable::fmt(anvil.peak, 4)
                                               : "-",
                              "", "ANVIL peak 1.0318"});
                fig3.print(os);
            };
            return sweep;
        },
    };
}

struct DefenseCell {
    const char *label;
    Tick refresh_period;
    const char *mitigation;  ///< registry name; "" runs untracked
    bool with_anvil;
};

constexpr Tick kStandardRefresh = ms(64);

const DefenseCell kDefenses[] = {
    {"none", kStandardRefresh, "", false},
    {"double-refresh", ms(32), "", false},
    {"para", kStandardRefresh, "para", false},
    {"trr", kStandardRefresh, "trr", false},
    {"anvil", kStandardRefresh, "", true},
};

/// Attack columns of the defense sweeps: the paper's three hammers, then
/// half-double (mitigation_matrix only).
constexpr struct AttackColumn {
    const char *label;
    AttackKind kind;
} kAttackColumns[] = {
    {"single-sided", AttackKind::kClflushSingleSided},
    {"double-sided", AttackKind::kClflushDoubleSided},
    {"clflush-free", AttackKind::kClflushFreeDoubleSided},
    {"half-double", AttackKind::kClflushHalfDouble},
};

/// The paper's three hammers (mitigation_comparison's columns).
constexpr std::span<const AttackColumn> kPaperAttacks =
    std::span(kAttackColumns).first<3>();

SweepFactory
mitigation_comparison()
{
    return {
        "mitigation_comparison",
        "Mitigation landscape: every defense discussed in the paper vs "
        "every attack, plus each defense's benign (mcf) slowdown",
        "",
        [](const runner::CliOptions &) {
            SweepSpec sweep;
            sweep.name = "mitigation_comparison";
            sweep.default_trials = 1;
            for (const DefenseCell &defense : kDefenses) {
                for (const AttackColumn &attack : kPaperAttacks) {
                    ScenarioSpec s = attack_cell(
                        std::string(defense.label) + "/" + attack.label,
                        attack.kind, defense.refresh_period);
                    s.mitigation = defense.mitigation;
                    if (defense.with_anvil)
                        s.detector = detector::AnvilConfig::baseline();
                    s.outputs = {Output::kFlipped};
                    sweep.cells.push_back(std::move(s));
                }
            }
            for (const DefenseCell &defense : kDefenses) {
                ScenarioSpec s;
                s.name = std::string("benign/") +
                         (defense.mitigation[0] == '\0' &&
                                  !defense.with_anvil &&
                                  defense.refresh_period ==
                                      kStandardRefresh
                              ? "unprotected"
                              : defense.label);
                s.system.dram.refresh_period = defense.refresh_period;
                s.seed_vm_from_trial = false;
                s.mitigation = defense.mitigation;
                s.tenants = {workload_tenant({"mcf", "", false})};
                s.detector_before_workloads = true;
                if (defense.with_anvil)
                    s.detector = detector::AnvilConfig::baseline();
                s.run.mode = RunMode::kWorkloadOps;
                s.run.ops = 1500000;
                s.outputs = {Output::kRunMs, Output::kOps};
                sweep.cells.push_back(std::move(s));
            }
            sweep.finalize = [](ResultSink &sink) {
                for (const char *label :
                     {"double-refresh", "para", "trr", "anvil"}) {
                    set_run_ratio(sink, std::string("benign/") + label,
                                  "benign/unprotected", "slowdown");
                }
            };
            sweep.render = [](const ResultSink &sink, std::ostream &os) {
                TextTable table("Mitigation comparison: which defenses stop "
                                "which attacks, and at what cost");
                table.set_header({"Defense", "1-sided CLFLUSH",
                                  "2-sided CLFLUSH", "2-sided CLFLUSH-free",
                                  "mcf slowdown",
                                  "deployable on existing HW?"});
                const struct {
                    const char *display;
                    /// kDefenses label; nullptr = the definitional
                    /// CLFLUSH ban, which has no cells.
                    const char *defense;
                    bool hardware;
                } rows[] = {
                    {"none (64 ms refresh)", "none", false},
                    {"double refresh (32 ms)", "double-refresh", false},
                    {"CLFLUSH disallowed", nullptr, false},
                    {"PARA (hardware)", "para", true},
                    {"TRR (hardware)", "trr", true},
                    {"ANVIL (software)", "anvil", false},
                };
                for (const auto &defense : rows) {
                    std::vector<std::string> row{defense.display};
                    for (const AttackColumn &attack : kPaperAttacks) {
                        if (defense.defense == nullptr) {
                            // Removing the instruction stops CLFLUSH
                            // attacks by construction and is bypassed by
                            // construction by the CLFLUSH-free attack.
                            const bool lands =
                                attack.kind ==
                                AttackKind::kClflushFreeDoubleSided;
                            row.push_back(lands ? "FLIPPED" : "stopped");
                            continue;
                        }
                        row.push_back(cell_text(
                            sink,
                            std::string(defense.defense) + "/" +
                                attack.label,
                            [](const ScenarioAggregate &agg) {
                                return agg.counter_sum("flipped") != 0
                                           ? "FLIPPED"
                                           : "stopped";
                            }));
                    }
                    const std::string one = TextTable::fmt(1.0, 4);
                    if (defense.defense == nullptr) {
                        // The CLFLUSH ban costs benign code nothing.
                        row.push_back(one);
                    } else if (std::string(defense.defense) == "none") {
                        // The unprotected machine is the baseline.
                        row.push_back(cell_text(
                            sink, "benign/unprotected",
                            [&](const ScenarioAggregate &) { return one; }));
                    } else {
                        row.push_back(derived_text(
                            sink, std::string("benign/") + defense.defense,
                            "slowdown", 4));
                    }
                    row.push_back(defense.hardware ? "no (new silicon)"
                                                   : "yes");
                    table.add_row(std::move(row));
                }
                table.print(os);
                os << "\nPaper's claims: double refresh loses to the 15 ms "
                      "double-sided attack; the CLFLUSH ban loses to the "
                      "eviction-based attack; hardware TRR/PARA work but do "
                      "not exist in deployed DRAM; ANVIL stops all three on "
                      "stock hardware for ~1-3 % overhead.\n";
            };
            return sweep;
        },
    };
}

/// Trackers of the mitigation matrix, in row order ("none" = untracked
/// baseline the miss-rate and slowdown columns normalize against).
constexpr const char *kMatrixTrackers[] = {
    "none",       "para",        "trr",  "ctrr-sampled",
    "ctrr-evict", "ctrr-radius2", "rvc", "dapper",
};

SweepFactory
mitigation_matrix()
{
    return {
        "mitigation_matrix",
        "Tracker zoo matrix: detection/miss rate of every registered "
        "mitigation tracker against classic, half-double, and "
        "tracker-thrash attacks on a next-generation module, plus the "
        "refresh-storm slowdown each tracker inflicts under thrash",
        "",
        [](const runner::CliOptions &) {
            SweepSpec sweep;
            sweep.name = "mitigation_matrix";
            sweep.default_trials = 2;

            for (const char *tracker : kMatrixTrackers) {
                const bool tracked = std::string(tracker) != "none";
                for (const AttackColumn &attack : kAttackColumns) {
                    ScenarioSpec s = attack_cell(
                        std::string(tracker) + "/" + attack.label,
                        attack.kind, kStandardRefresh);
                    // Next-generation module (Section 4.5's 110 K-class
                    // parts): halved flip threshold plus real
                    // second-neighbour coupling, the regime half-double
                    // exploits.
                    s.system.dram.flip_threshold = 200000;
                    s.system.dram.second_neighbor_weight = 0.5;
                    if (tracked)
                        s.mitigation = tracker;
                    s.outputs = {Output::kFlipped, Output::kFlipMs};
                    if (tracked)
                        s.outputs.push_back(Output::kMitigationRefreshes);
                    sweep.cells.push_back(std::move(s));
                }
                // Thrash column: fixed mcf work interleaved with the
                // tracker-thrash adversary; run_ms grows with whatever
                // refresh storm the tracker's table-pressure response
                // adds on top of the attacker's own traffic.
                ScenarioSpec s;
                s.name = std::string(tracker) + "/thrash";
                s.system.dram.flip_threshold = 200000;
                s.system.dram.second_neighbor_weight = 0.5;
                s.seed_vm_from_trial = false;
                if (tracked)
                    s.mitigation = tracker;
                s.tenants = {
                    attacker_tenant({AttackKind::kTrackerThrash}),
                    workload_tenant({"mcf", "", false}),
                };
                s.run.mode = RunMode::kInterleaveUntilOps;
                s.run.ops = 300000;
                s.outputs = {Output::kRunMs, Output::kOps};
                if (tracked) {
                    s.outputs.push_back(Output::kMitigationRefreshes);
                    s.outputs.push_back(Output::kMitigationEvictions);
                }
                sweep.cells.push_back(std::move(s));
            }

            sweep.finalize = [](ResultSink &sink) {
                for (const char *tracker : kMatrixTrackers) {
                    for (const AttackColumn &attack : kAttackColumns) {
                        ScenarioAggregate *agg = sink.find(
                            std::string(tracker) + "/" + attack.label);
                        if (agg == nullptr)
                            continue;
                        const double trials =
                            static_cast<double>(agg->trials());
                        // Fraction of trials where the attack still
                        // flipped a bit = the tracker's miss rate for
                        // this attack kind.
                        agg->set_derived(
                            "miss_rate",
                            trials > 0.0
                                ? static_cast<double>(
                                      agg->counter_sum("flipped")) /
                                      trials
                                : 0.0);
                    }
                    const std::string cell =
                        std::string(tracker) + "/thrash";
                    set_run_ratio(sink, cell, "none/thrash", "slowdown");
                    ScenarioAggregate *agg = sink.find(cell);
                    if (agg == nullptr)
                        continue;
                    const double run_ms_total = value_sum(*agg, "run_ms");
                    agg->set_derived(
                        "refreshes_per_64ms",
                        run_ms_total > 0.0
                            ? static_cast<double>(agg->counter_sum(
                                  "mitigation_refreshes")) /
                                  (run_ms_total / 64.0)
                            : 0.0);
                }
            };
            sweep.render = [](const ResultSink &sink, std::ostream &os) {
                TextTable table("Mitigation matrix: per-tracker miss rate "
                                "by attack kind (next-gen module), thrash "
                                "slowdown, and refresh volume under thrash");
                table.set_header({"Tracker", "1-sided", "2-sided",
                                  "CLFLUSH-free", "half-double",
                                  "thrash slowdown",
                                  "refreshes/64ms (thrash)"});
                for (const char *tracker : kMatrixTrackers) {
                    std::vector<std::string> row{tracker};
                    for (const AttackColumn &attack : kAttackColumns) {
                        row.push_back(derived_text(
                            sink, std::string(tracker) + "/" + attack.label,
                            "miss_rate", 2));
                    }
                    const std::string thrash =
                        std::string(tracker) + "/thrash";
                    row.push_back(derived_text(sink, thrash, "slowdown", 4));
                    row.push_back(
                        derived_text(sink, thrash, "refreshes_per_64ms", 1));
                    table.add_row(std::move(row));
                }
                table.print(os);
                os << "\nmiss rate = fraction of trials where the attack "
                      "still flipped a bit; thrash slowdown = mcf run time "
                      "under tracker-thrash, normalized to the untracked "
                      "machine.\n";
            };
            return sweep;
        },
    };
}

/// Victims of the colocation sweep, in pid order after the attacker.
constexpr const char *kColocationVictims[] = {"mcf", "libquantum",
                                              "omnetpp", "gcc"};

/// How many simulated accesses one scheduler turn grants each tenant.
/// Coarser than the legacy 1-step interleave: tenants run in visible
/// bursts, the regime where cross-tenant attribution can actually err.
constexpr std::uint64_t kColocationQuantum = 64;

SweepFactory
multi_tenant_colocation()
{
    return {
        "multi_tenant_colocation",
        "Multi-tenant colocation: one attacker beside 1-4 victim "
        "tenants — detection latency, offender attribution, and each "
        "victim's slowdown vs its solo run",
        "",
        [](const runner::CliOptions &) {
            SweepSpec sweep;
            sweep.name = "multi_tenant_colocation";
            sweep.default_trials = 2;

            // Solo baselines: each victim alone on the machine, same
            // quantum and duration as the colocated cells, so the ops
            // ratio isolates the neighbours' impact.
            for (const char *victim : kColocationVictims) {
                ScenarioSpec s;
                s.name = std::string("solo/") + victim;
                s.tenants = {workload_tenant(
                    {victim, std::string("w:") + victim,
                     /*boost_thrash=*/false},
                    kColocationQuantum)};
                s.run.mode = RunMode::kInterleaveFor;
                s.run.duration = ms(128);
                s.outputs = {Output::kTenantOps, Output::kDramStats};
                sweep.cells.push_back(std::move(s));
            }

            for (std::size_t n = 1; n <= 4; ++n) {
                ScenarioSpec s;
                s.name = "colocated/" + std::to_string(n);
                s.pre_detector = {us(137), us(6000), "phase"};
                s.detector = detector::AnvilConfig::baseline();
                s.pre_attack = {ms(1), us(4000), "attack-phase"};
                s.tenants = {attacker_tenant(
                    {AttackKind::kClflushDoubleSided}, kColocationQuantum)};
                for (std::size_t i = 0; i < n; ++i) {
                    const char *victim = kColocationVictims[i];
                    s.tenants.push_back(workload_tenant(
                        {victim, std::string("w:") + victim,
                         /*boost_thrash=*/false},
                        kColocationQuantum));
                }
                s.run.mode = RunMode::kInterleaveFor;
                s.run.duration = ms(128);
                s.outputs = {Output::kDetections,
                             Output::kDetectMs,
                             Output::kTenantOps,
                             Output::kTenantDetections,
                             Output::kCrossTenantFp,
                             Output::kAnvilStats,
                             Output::kDramStats};
                sweep.cells.push_back(std::move(s));
            }

            sweep.finalize = [](ResultSink &sink) {
                for (std::size_t n = 1; n <= 4; ++n) {
                    ScenarioAggregate *agg =
                        sink.find("colocated/" + std::to_string(n));
                    if (agg == nullptr)
                        continue;
                    agg->set_derived("avg_detect_ms",
                                     agg->value_mean("detect_ms", -1.0));
                    for (std::size_t i = 0; i < n; ++i) {
                        const std::string victim = kColocationVictims[i];
                        const std::string ops = "ops/" + victim;
                        const ScenarioAggregate *solo_agg =
                            sink.find("solo/" + victim);
                        const double solo =
                            solo_agg != nullptr
                                ? static_cast<double>(
                                      solo_agg->counter_sum(ops))
                                : 0.0;
                        const double here = static_cast<double>(
                            agg->counter_sum(ops));
                        agg->set_derived("slowdown/" + victim,
                                         here > 0.0 ? solo / here : 0.0);
                    }
                }
            };
            return sweep;
        },
    };
}

/// Cache-hostile tenants of the noisy-neighbor sweep: the profiles with
/// the liveliest conflict-thrash phases, i.e. the likeliest to be
/// mistaken for a rowhammer aggressor.
constexpr const char *kNoisyHogs[] = {"gcc", "bzip2", "astar",
                                      "xalancbmk"};

constexpr std::size_t kNoisyCounts[] = {1, 2, 4};

SweepFactory
noisy_neighbor_fp()
{
    return {
        "noisy_neighbor_fp",
        "Noisy neighbors, zero attackers: N boosted cache-hog tenants "
        "under the system-wide daemon — false-positive refresh rate, "
        "cross-tenant blame, and the daemon's aggregate overhead",
        "[run_seconds]",
        [](const runner::CliOptions &cli) {
            const double run_sec = cli.positional_double(0, 1.0);
            SweepSpec sweep;
            sweep.name = "noisy_neighbor_fp";
            sweep.default_trials = 1;

            const auto hogs = [&](ScenarioSpec &s, std::size_t n) {
                for (std::size_t i = 0; i < n; ++i) {
                    const char *hog = kNoisyHogs[i];
                    s.tenants.push_back(workload_tenant(
                        {hog, std::string("w:") + hog,
                         /*boost_thrash=*/true},
                        kColocationQuantum));
                }
                s.run.mode = RunMode::kInterleaveFor;
                s.run.duration = seconds(run_sec);
            };
            for (const std::size_t n : kNoisyCounts) {
                ScenarioSpec s;
                s.name = "hogs/" + std::to_string(n);
                s.detector_before_workloads = true;
                s.detector = detector::AnvilConfig::baseline();
                hogs(s, n);
                s.outputs = {Output::kFalsePositiveRefreshes,
                             Output::kBoost,
                             Output::kRunMs,
                             Output::kTenantOps,
                             Output::kTenantDetections,
                             Output::kCrossTenantFp,
                             Output::kAnvilStats};
                sweep.cells.push_back(std::move(s));

                ScenarioSpec u;
                u.name = "hogs/" + std::to_string(n) + "/unprotected";
                hogs(u, n);
                u.outputs = {Output::kTenantOps, Output::kRunMs};
                sweep.cells.push_back(std::move(u));
            }

            sweep.finalize = [](ResultSink &sink) {
                for (const std::size_t n : kNoisyCounts) {
                    const std::string cell = "hogs/" + std::to_string(n);
                    ScenarioAggregate *agg = sink.find(cell);
                    if (agg == nullptr)
                        continue;
                    const double run_ms_total = value_sum(*agg, "run_ms");
                    // Raw boosted rate: divide by the cell's "boost"
                    // value for the unbiased estimate (the boost is the
                    // product over every boosted tenant).
                    agg->set_derived(
                        "fp_refreshes_per_sec",
                        run_ms_total > 0.0
                            ? static_cast<double>(agg->counter_sum(
                                  "false_positive_refreshes")) /
                                  (run_ms_total / 1000.0)
                            : 0.0);
                    const ScenarioAggregate *unprotected =
                        sink.find(cell + "/unprotected");
                    double protected_ops = 0.0;
                    double unprotected_ops = 0.0;
                    for (std::size_t i = 0; i < n; ++i) {
                        const std::string ops =
                            std::string("ops/") + kNoisyHogs[i];
                        protected_ops += static_cast<double>(
                            agg->counter_sum(ops));
                        if (unprotected != nullptr) {
                            unprotected_ops += static_cast<double>(
                                unprotected->counter_sum(ops));
                        }
                    }
                    agg->set_derived("overhead",
                                     protected_ops > 0.0
                                         ? unprotected_ops / protected_ops
                                         : 0.0);
                }
            };
            return sweep;
        },
    };
}

}  // namespace

const ScenarioRegistry &
paper_registry()
{
    static const ScenarioRegistry registry = [] {
        ScenarioRegistry r;
        r.add(table1_attacks());
        r.add(fig1_pattern());
        r.add(table3_detection());
        r.add(table4_false_positives());
        r.add(table5_fp_sensitivity());
        r.add(fig3_overhead());
        r.add(fig4_sensitivity());
        r.add(mitigation_comparison());
        r.add(mitigation_matrix());
        r.add(multi_tenant_colocation());
        r.add(noisy_neighbor_fp());
        return r;
    }();
    return registry;
}

}  // namespace anvil::scenario
