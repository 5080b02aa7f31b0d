/**
 * @file
 * The paper catalog: every table/figure of the ANVIL evaluation as a
 * registered SweepSpec factory — its cell grid, seed streams, phase
 * jitter, run mode and outputs, a finalize hook deriving the table's
 * aggregates, and a render hook printing the paper's table. The paper's
 * own values are typed data (PaperValue fields beside the rows they
 * describe), never display strings, and paper_table() draws every
 * table: the one place a cell the run did not produce prints as "-".
 */
#include <functional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "cache/flat_replacement.hh"
#include "common/error.hh"
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
 * A number the paper reports — a value, or a value-hi range — with the
 * decimal places it prints and its unit as printed after the number
 * (" ms", "/s", "K" for thousands, "" for counts and ratios).
 */
struct PaperValue {
    double value;
    int digits;
    const char *unit = "";
    double hi = 0.0;  ///< the range's top; none when not above value

    /** The paper's text: "12.8 ms", "220K", "20-26". */
    std::string
    text() const
    {
        return TextTable::fmt(value, digits) +
               (hi > value ? "-" + TextTable::fmt(hi, digits) : "") + unit;
    }
};

/// The refresh period of DDR3 and of every paper cell not studying it.
constexpr Tick kStandardRefresh = ms(64);

/** @p t in whole milliseconds, e.g. "64 ms". */
std::string
ms_text(Tick t)
{
    return TextTable::fmt(to_ms(t), 0) + " ms";
}

/** How a measured table entry prints its cell's aggregate. */
using Format = std::function<std::string(const ScenarioAggregate &)>;

/**
 * One entry of a paper-table row: fixed text (a label, the paper's
 * value), or sink cell @c cell printed by @c format.
 */
struct Entry {
    Entry(std::string text) : text(std::move(text)) {}
    Entry(const char *text) : text(text) {}
    Entry(std::string cell, Format format)
        : cell(std::move(cell)), format(std::move(format))
    {
    }

    std::string text;
    std::string cell;
    Format format;
};

using TableRow = std::vector<Entry>;

/**
 * Table @p title with @p header over @p rows. A measured entry prints
 * "-" when @p sink has no trial of its cell (e.g. a --replay-trial run
 * of another cell).
 */
TextTable
paper_table(std::string title, std::vector<std::string> header,
            const ResultSink &sink, const std::vector<TableRow> &rows)
{
    TextTable table(std::move(title));
    table.set_header(std::move(header));
    for (const TableRow &row : rows) {
        std::vector<std::string> cells;
        for (const Entry &entry : row) {
            if (!entry.format)
                cells.push_back(entry.text);
            else if (const ScenarioAggregate *agg = sink.find(entry.cell))
                cells.push_back(entry.format(*agg));
            else
                cells.push_back("-");
        }
        table.add_row(std::move(cells));
    }
    return table;
}

/** Format: mean of value @p metric to @p digits places. */
Format
mean_of(const char *metric, int digits)
{
    return [=](const ScenarioAggregate &agg) {
        return TextTable::fmt(agg.value_mean(metric), digits);
    };
}

/** Format: derived scalar @p metric to @p digits places, then @p unit. */
Format
derived_of(const char *metric, int digits, const char *unit = "")
{
    return [=](const ScenarioAggregate &agg) {
        return TextTable::fmt(agg.derived(metric), digits) + unit;
    };
}

/** Format: the sum of counter @p metric, with thousands separators. */
Format
count_of(const char *metric)
{
    return [=](const ScenarioAggregate &agg) {
        return TextTable::fmt_count(agg.counter_sum(metric));
    };
}

/// How far a sweep argument may exceed its default: the paper needs far
/// less, and a larger value would run for hours (or, near 2^64 ops or
/// picoseconds, wrap to a wrong run).
constexpr double kMaxArgumentScale = 100.0;

/**
 * Sweep argument 0 (or @p fallback), refused above kMaxArgumentScale
 * times @p fallback.
 */
double
sweep_argument(const runner::CliOptions &cli, double fallback)
{
    const double v = cli.positional_double(0, fallback);
    const double max = kMaxArgumentScale * fallback;
    if (v > max) {
        throw Error("sweep argument exceeds its maximum")
            .with("argument", std::uint64_t{0})
            .with("text", cli.positional[0])
            .with("max", static_cast<std::uint64_t>(max));
    }
    return v;
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

/** Table 2: the paper's detector parameters. */
constexpr struct Table2Paper {
    PaperValue llc_miss_threshold;  ///< LLC misses per tc, thousands
    PaperValue tc;
    PaperValue ts;
    PaperValue samples_per_sec;
} kTable2Paper = {{20, 0, "K"}, {6, 0, " ms"}, {6, 0, " ms"},
                  {5000, 0, "/s"}};

/** Table 3's cells in row order, with the paper's measured row. */
constexpr struct Table3Cell {
    const char *label;
    bool clflush_free;
    bool heavy;
    PaperValue detect_ms;  ///< average time to detect
    PaperValue refreshes_per_64ms;
    PaperValue flips;
} kTable3Cells[] = {
    {"CLFLUSH (Heavy Load)", false, true, {12.8, 1, " ms"},
     {12.35, 2}, {0, 0}},
    {"CLFLUSH (Light Load)", false, false, {12.3, 1, " ms"},
     {10.3, 1}, {0, 0}},
    {"CLFLUSH-free (Heavy Load)", true, true, {35.3, 1, " ms"},
     {4.53, 2}, {0, 0}},
    {"CLFLUSH-free (Light Load)", true, false, {22.85, 2, " ms"},
     {5.10, 2}, {0, 0}},
};

/** Tables 2 and 3: the detector's parameters and its results. */
void
render_table3(const ResultSink &sink, std::ostream &os)
{
    const detector::AnvilConfig config = detector::AnvilConfig::baseline();
    const Table2Paper &p = kTable2Paper;
    const double samples_per_ts =
        p.samples_per_sec.value * p.ts.value / 1000.0;
    paper_table("Table 2: Rowhammer Detector Parameters",
                {"Parameter", "Value", "Paper"}, sink,
                {{"LLC_MISS_THRESHOLD",
                  TextTable::fmt_count(config.llc_miss_threshold),
                  p.llc_miss_threshold.text()},
                 {"Miss Count Duration (tc)", ms_text(config.tc),
                  p.tc.text()},
                 {"Sampling Duration (ts)", ms_text(config.ts), p.ts.text()},
                 {"Sampling rate",
                  TextTable::fmt(config.samples_per_sec, 0) + "/s",
                  p.samples_per_sec.text() + " (~" +
                      TextTable::fmt(samples_per_ts, 0) + " per " +
                      p.ts.text() + ")"}})
        .print(os);

    std::vector<TableRow> rows;
    for (const Table3Cell &c : kTable3Cells) {
        rows.push_back({c.label,
                        {c.label, derived_of("avg_detect_ms", 1, " ms")},
                        {c.label, derived_of("refreshes_per_64ms", 2)},
                        {c.label, count_of("flips")},
                        c.detect_ms.text() + " / " +
                            c.refreshes_per_64ms.text() + " / " +
                            c.flips.text()});
    }
    paper_table("Table 3: Rowhammer Detection Results",
                {"Benchmark", "Avg Time to Detect",
                 "Refreshes per " + ms_text(kStandardRefresh),
                 "Total Bit Flips", "Paper"},
                sink, rows)
        .print(os);
}

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
                s.run.duration = 2 * kStandardRefresh;
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
                                  (attack_ms_total / to_ms(kStandardRefresh))
                            : 0.0);
                }
            };
            sweep.render = render_table3;
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

/// The paper prints every false-positive rate to two places.
constexpr int kRateDigits = 2;

/** Table 4's benchmarks in row order, with the paper's refreshes/sec. */
constexpr struct Table4Row {
    const char *name;
    double paper_per_sec;
} kTable4Rows[] = {
    {"astar", 0.10},      {"bzip2", 1.05},   {"gcc", 0.71},
    {"gobmk", 0.19},      {"h264ref", 0.00}, {"hmmer", 0.00},
    {"libquantum", 0.06}, {"mcf", 0.01},     {"omnetpp", 0.02},
    {"perlbench", 0.00},  {"sjeng", 0.00},   {"xalancbmk", 0.05},
};

/** Table 4 at @p run_sec simulated seconds per benchmark. */
void
render_table4(double run_sec, const ResultSink &sink, std::ostream &os)
{
    std::vector<TableRow> rows;
    for (const Table4Row &row : kTable4Rows) {
        rows.push_back({row.name,
                        {row.name, mean_of("fp_per_sec", kRateDigits)},
                        TextTable::fmt(row.paper_per_sec, kRateDigits)});
    }
    paper_table("Table 4: Rate of False Positive Refreshes (ANVIL-baseline, " +
                    TextTable::fmt(run_sec, 1) +
                    " s per benchmark, rate-boosted sampling)",
                {"Benchmark", "Refreshes/sec", "Paper"}, sink, rows)
        .print(os);
}

SweepFactory
table4_false_positives()
{
    return {
        "table4_false_positives",
        "Table 4: false-positive refresh rate of the twelve SPEC2006 "
        "integer benchmarks under ANVIL-baseline",
        "[run_seconds]",
        [](const runner::CliOptions &cli) {
            const double run_sec = sweep_argument(cli, 3.0);
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
            sweep.render = std::bind_front(render_table4, run_sec);
            return sweep;
        },
    };
}

/** Table 5's benchmarks in row order, with the paper's refreshes/sec. */
constexpr struct Table5Row {
    const char *name;
    double paper_light_per_sec;
    double paper_heavy_per_sec;
} kTable5Rows[] = {
    {"bzip2", 1.61, 1.09},      {"gcc", 7.12, 1.88},
    {"gobmk", 0.28, 0.84},      {"libquantum", 0.13, 0.08},
    {"perlbench", 0.06, 0.00},
};

/** Table 5 at @p run_sec simulated seconds per cell. */
void
render_table5(double run_sec, const ResultSink &sink, std::ostream &os)
{
    std::vector<TableRow> rows;
    for (const Table5Row &row : kTable5Rows) {
        const std::string name = row.name;
        rows.push_back(
            {name, {name + "/light", mean_of("fp_per_sec", kRateDigits)},
             {name + "/heavy", mean_of("fp_per_sec", kRateDigits)},
             TextTable::fmt(row.paper_light_per_sec, kRateDigits) + " / " +
                 TextTable::fmt(row.paper_heavy_per_sec, kRateDigits)});
    }
    paper_table("Table 5: False positive refreshes/sec under ANVIL-light "
                "and ANVIL-heavy (" +
                    TextTable::fmt(run_sec, 1) + " s per cell)",
                {"Benchmark", "ANVIL-light", "ANVIL-heavy",
                 "Paper (light / heavy)"},
                sink, rows)
        .print(os);
}

SweepFactory
table5_fp_sensitivity()
{
    return {
        "table5_fp_sensitivity",
        "Table 5: false-positive refresh rate under ANVIL-light and "
        "ANVIL-heavy on the Figure-4 benchmark subset",
        "[run_seconds]",
        [](const runner::CliOptions &cli) {
            const double run_sec = sweep_argument(cli, 3.0);
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
            sweep.render = std::bind_front(render_table5, run_sec);
            return sweep;
        },
    };
}

constexpr const char *kFig4Benchmarks[] = {"bzip2", "gcc", "gobmk",
                                           "libquantum", "perlbench"};

/// Detector settings of the Fig. 4 columns, each normalized to "none".
constexpr const char *kFig4Detectors[] = {"baseline", "light", "heavy"};

/// Fig. 4: ANVIL-heavy costs most, up to this normalized time.
constexpr PaperValue kFig4HeavyPeak = {1.08, 2};

/**
 * Section 4.5: "a future scenario where bit flips can occur with 110K
 * DRAM row accesses", and the two attacks the paper weighs against it.
 */
constexpr struct Section45Paper {
    PaperValue flip_accesses;  ///< row accesses to a flip, thousands
    PaperValue fast_flip_ms;   ///< a full-speed attack's time to flip
    PaperValue spread_misses;  ///< a spread attack's misses per tc
} kSection45 = {{110, 0, "K"}, {7, 0, " ms"}, {10, 0, "K"}};

/** The Section 4.5 scenarios in cell and table order. */
constexpr struct FutureCase {
    const char *name;
    bool spread;
    detector::AnvilConfig (*config)();
    const char *config_label;  ///< table text
    bool paper_caught;         ///< the paper: this detector stops it
} kFutureCases[] = {
    {"future/fast/heavy", false, &detector::AnvilConfig::heavy,
     "ANVIL-heavy", true},
    {"future/fast/baseline", false, &detector::AnvilConfig::baseline,
     "ANVIL-baseline", false},
    {"future/spread/light", true, &detector::AnvilConfig::light,
     "ANVIL-light", true},
    {"future/spread/baseline", true, &detector::AnvilConfig::baseline,
     "ANVIL-baseline", false},
};

/** Figure 4 at @p ops ops per benchmark, then the Section 4.5 cases. */
void
render_fig4(std::uint64_t ops, const ResultSink &sink, std::ostream &os)
{
    std::vector<TableRow> rows;
    for (const char *name : kFig4Benchmarks) {
        TableRow row{name};
        for (const char *label : kFig4Detectors) {
            row.push_back({std::string(name) + "/" + label,
                           derived_of("normalized", 4)});
        }
        row.push_back("");
        rows.push_back(std::move(row));
    }
    paper_table("Figure 4: Normalized execution time under ANVIL-baseline "
                "/ -light / -heavy (" +
                    TextTable::fmt_count(ops) + " ops/benchmark)",
                {"Benchmark", "ANVIL-baseline", "ANVIL-light", "ANVIL-heavy",
                 "Paper: heavy costs most (up to ~" + kFig4HeavyPeak.text() +
                     ")"},
                sink, rows)
        .print(os);

    const Section45Paper &p = kSection45;
    rows.clear();
    for (const FutureCase &c : kFutureCases) {
        // The fast attack outruns baseline's windows; the spread one
        // stays under its threshold.
        const std::string paper_text =
            c.paper_caught ? "caught by " + std::string(c.config_label)
            : c.spread     ? "evades the " +
                             kTable2Paper.llc_miss_threshold.text() +
                             " threshold"
                           : "needs smaller windows";
        rows.push_back(
            {c.spread ? "spread out (just over " + p.spread_misses.text() +
                            " misses/" + kTable2Paper.tc.text() + ")"
                      : "fast (full speed, flips in ~" +
                            p.fast_flip_ms.text() + ")",
             c.config_label,
             {c.name,
              [](const ScenarioAggregate &agg) {
                  return agg.counter_sum("flips") != 0 ? "FLIPPED" : "0";
              }},
             {c.name, count_of("detections")}, paper_text});
    }
    paper_table("Section 4.5: future-attack scenarios (module flips at " +
                    p.flip_accesses.text() + " accesses)",
                {"Attack", "Config", "Bit flips", "Detections", "Paper"},
                sink, rows)
        .print(os);
}

SweepFactory
fig4_sensitivity()
{
    return {
        "fig4_sensitivity",
        "Figure 4 + Section 4.5: slowdown sensitivity of ANVIL-baseline/"
        "-light/-heavy, plus future-module (" +
            kSection45.flip_accesses.text() + "-access) attack scenarios",
        "[ops]",
        [](const runner::CliOptions &cli) {
            const auto ops = static_cast<std::uint64_t>(
                sweep_argument(cli, 4000000.0));
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
            // ground-truth scoping; kUnlabeled keeps the output that
            // tests/data/fig4_future_golden.json pins (ROADMAP.md's
            // ground-truth item would label them).
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
            sweep.render = std::bind_front(render_fig4, ops);
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

/** Table 1 (standard refresh), in cell and table order. */
constexpr struct Table1Row {
    const char *cell;
    AttackKind kind;
    const char *label;
    PaperValue accesses;  ///< minimum DRAM row accesses, thousands
    PaperValue flip_ms;   ///< time to the first bit flip
} kTable1Rows[] = {
    {"single-sided/64ms", AttackKind::kClflushSingleSided,
     "Single-Sided with CLFLUSH", {400, 0, "K"}, {58, 0, " ms"}},
    {"double-sided/64ms", AttackKind::kClflushDoubleSided,
     "Double-Sided with CLFLUSH", {220, 0, "K"}, {15, 0, " ms"}},
    {"clflush-free/64ms", AttackKind::kClflushFreeDoubleSided,
     "Double-Sided without CLFLUSH", {220, 0, "K"}, {45, 0, " ms"}},
};

constexpr const Table1Row &kDoubleSided = kTable1Rows[1];

/** Section 2.1 / 5.2.1: Table 1's attacks rerun under faster refresh. */
constexpr struct RefreshRow {
    const char *cell;
    const Table1Row *attack;
    Tick refresh;
    bool paper_flips;
    bool by_time_to_flip;  ///< the paper argues it from Table 1's time
    const char *source;    ///< where else the paper says so, or nullptr
} kRefreshRows[] = {
    {"double-sided/32ms", &kDoubleSided, ms(32), true, true, nullptr},
    {"double-sided/16ms", &kDoubleSided, ms(16), true, false,
     "Section 5.2.1"},
    {"single-sided/32ms", &kTable1Rows[0], ms(32), false, false, nullptr},
    {"clflush-free/32ms", &kTable1Rows[2], ms(32), false, true, nullptr},
};

/** Table 1, then the same attacks under faster refresh. */
void
render_table1(const ResultSink &sink, std::ostream &os)
{
    const auto flipped = [](const ScenarioAggregate &agg) {
        return agg.counter_sum("flipped") != 0;
    };
    const auto flip_ms = [](const ScenarioAggregate &agg) {
        return TextTable::fmt(agg.value_mean("flip_ms"), 1) + " ms";
    };
    const Format accesses = [=](const ScenarioAggregate &agg) {
        return flipped(agg) ? TextTable::fmt_count(
                                  agg.counter_sum("aggressor_accesses"))
                            : "no flip";
    };
    const Format time = [=](const ScenarioAggregate &agg) {
        return flipped(agg) ? flip_ms(agg) : "-";
    };
    std::vector<TableRow> rows;
    for (const Table1Row &row : kTable1Rows) {
        rows.push_back({row.label, {row.cell, accesses}, {row.cell, time},
                        row.accesses.text() + " / " + row.flip_ms.text()});
    }
    paper_table("Table 1: Rowhammer Attack Characteristics (" +
                    ms_text(kStandardRefresh) + " refresh)",
                {"Hammer Technique", "Min DRAM Row Accesses",
                 "Time to First Bit Flip", "Paper"},
                sink, rows)
        .print(os);

    const Format outcome = [=](const ScenarioAggregate &agg) {
        return flipped(agg) ? "FLIPPED at " + flip_ms(agg) : "no flip";
    };
    rows.clear();
    for (const RefreshRow &row : kRefreshRows) {
        std::string paper_text = row.paper_flips ? "flips" : "defeated";
        if (row.by_time_to_flip) {
            const PaperValue &t = row.attack->flip_ms;
            paper_text += " (" + t.text() +
                          (t.value < to_ms(row.refresh) ? " < " : " > ") +
                          ms_text(row.refresh) + ")";
        }
        if (row.source != nullptr)
            paper_text += std::string(" (") + row.source + ")";
        rows.push_back({row.attack->label, ms_text(row.refresh),
                        {row.cell, outcome}, paper_text});
    }
    paper_table("Section 2.1 / 5.2.1: attacks vs. increased refresh rates",
                {"Hammer Technique", "Refresh Period", "Outcome", "Paper"},
                sink, rows)
        .print(os);
}

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
            for (const Table1Row &row : kTable1Rows) {
                sweep.cells.push_back(
                    attack_cell(row.cell, row.kind, kStandardRefresh));
            }
            for (const RefreshRow &row : kRefreshRows) {
                sweep.cells.push_back(
                    attack_cell(row.cell, row.attack->kind, row.refresh));
            }
            sweep.render = render_table1;
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

/** Figure 1b / Section 2.2: the paper's cost of one pattern iteration. */
constexpr struct Fig1Paper {
    PaperValue accesses_per_iter;  ///< approximate
    PaperValue misses_per_iter;
    PaperValue cycles_per_iter;      ///< estimate
    PaperValue ns_per_iter;          ///< estimate - measured
    PaperValue hammers_per_refresh;  ///< upper bound
} kFig1Paper = {{20, 0, "", 26}, {2, 0}, {880, 0},
                {338, 0, "", 409}, {190000, 0}};

/** The Fig. 1b cell measuring the pattern under LLC @p policy. */
std::string
pattern_cell(cache::ReplPolicy policy)
{
    return std::string("pattern/") + cache::to_string(policy);
}

/** Figure 1b's cost model (Bit-PLRU), then the LLC-policy ablation. */
void
render_fig1(const ResultSink &sink, std::ostream &os)
{
    // Double-sided hammers per refresh period, as a count.
    const Format hammers = [](const ScenarioAggregate &agg) {
        return TextTable::fmt_count(static_cast<std::uint64_t>(
            agg.value_mean("hammers_per_refresh")));
    };
    const Format share = [](const ScenarioAggregate &agg) {
        return TextTable::fmt(100.0 * agg.value_mean("aggressor_act_share"),
                              1) +
               " %";
    };
    const Fig1Paper &p = kFig1Paper;
    const std::string bitplru = pattern_cell(cache::ReplPolicy::kBitPlru);
    paper_table(
        "Figure 1b / Section 2.2: CLFLUSH-free eviction pattern cost model "
        "(Bit-PLRU LLC)",
        {"Metric", "Measured", "Paper"}, sink,
        {{"LLC accesses / iteration",
          {bitplru, mean_of("accesses_per_iter", 1)},
          "~" + p.accesses_per_iter.text() + " (13-address eviction sets)"},
         {"LLC misses / iteration (both aggressors)",
          {bitplru, mean_of("misses_per_iter", 2)}, p.misses_per_iter.text()},
         {"cycles / iteration", {bitplru, mean_of("cycles_per_iter", 0)},
          p.cycles_per_iter.text() + " (estimate)"},
         {"ns / iteration", {bitplru, mean_of("ns_per_iter", 0)},
          TextTable::fmt(p.ns_per_iter.value, 0) + " (estimate) - " +
              TextTable::fmt(p.ns_per_iter.hi, 0) + " (measured)"},
         {"double-sided hammers per " + ms_text(kStandardRefresh),
          {bitplru, hammers},
          "up to " + TextTable::fmt_count(static_cast<std::uint64_t>(
                         p.hammers_per_refresh.value))},
         {"aggressor share of DRAM activations", {bitplru, share},
          "high (precise misses are critical)"}})
        .print(os);

    const double viable = kSection45.flip_accesses.value * 1000.0;
    const Format viable_text = [=](const ScenarioAggregate &agg) {
        return agg.value_mean("hammers_per_refresh") > viable ? "yes" : "no";
    };
    std::vector<TableRow> rows;
    for (const cache::ReplPolicy policy : kFig1Policies) {
        const std::string cell = pattern_cell(policy);
        rows.push_back({cache::to_string(policy),
                        {cell, mean_of("misses_per_iter", 2)},
                        {cell, mean_of("ns_per_iter", 0)},
                        {cell, hammers},
                        {cell, viable_text}});
    }
    paper_table("Ablation: the same pattern vs. other LLC replacement "
                "policies",
                {"LLC policy", "misses/iter", "ns/iter",
                 "hammers / " + ms_text(kStandardRefresh),
                 "attack viable (>" + kSection45.flip_accesses.text() +
                     ")?"},
                sink, rows)
        .print(os);
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
            sweep.render = render_fig1;
            return sweep;
        },
    };
}

/** Figure 3: ANVIL's normalized execution time as the paper reports it. */
constexpr struct Fig3Paper {
    PaperValue anvil_avg;
    PaperValue anvil_peak;
} kFig3Paper = {{1.0117, 4}, {1.0318, 4}};

/** Figure 3 at @p ops ops per benchmark, with its average and peak. */
void
render_fig3(std::uint64_t ops, const ResultSink &sink, std::ostream &os)
{
    // Each column's values, gathered as its entries print, for the
    // average and peak over the benchmarks the run produced.
    RunningStat anvil, refresh;
    const auto gather = [](RunningStat &stat) -> Format {
        return [&stat](const ScenarioAggregate &agg) {
            const double norm = agg.derived("normalized");
            stat.add(norm);
            return TextTable::fmt(norm, 4);
        };
    };
    std::vector<TableRow> rows;
    for (const workload::SpecProfile &profile :
         workload::spec2006_int().all()) {
        rows.push_back({profile.name,
                        {profile.name + "/anvil", gather(anvil)},
                        {profile.name + "/double-refresh", gather(refresh)},
                        ""});
    }
    const Fig3Paper &p = kFig3Paper;
    TextTable fig3 = paper_table(
        "Figure 3: Normalized execution time (baseline = unprotected, " +
            ms_text(kStandardRefresh) + " refresh; " +
            TextTable::fmt_count(ops) + " ops/benchmark)",
        {"Benchmark", "ANVIL", "Double Refresh",
         "Paper (ANVIL peak " + TextTable::fmt(p.anvil_peak.value, 3) +
             ", avg " + p.anvil_avg.text() + ")"},
        sink, rows);
    const auto mean = [](const RunningStat &stat) {
        return stat.count() != 0
                   ? TextTable::fmt(stat.sum() / stat.count(), 4)
                   : "-";
    };
    fig3.add_row({"average", mean(anvil), mean(refresh),
                  "ANVIL avg " + p.anvil_avg.text()});
    fig3.add_row({"peak (ANVIL)",
                  anvil.count() != 0 ? TextTable::fmt(anvil.max(), 4) : "-",
                  "", "ANVIL peak " + p.anvil_peak.text()});
    fig3.print(os);
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
            const auto ops = static_cast<std::uint64_t>(
                sweep_argument(cli, 4000000.0));
            SweepSpec sweep;
            sweep.name = "fig3_overhead";
            sweep.default_trials = 1;
            const struct {
                const char *label;
                Tick refresh_period;
                bool with_anvil;
            } settings[] = {
                {"base", kStandardRefresh, false},
                {"anvil", kStandardRefresh, true},
                {"double-refresh", kStandardRefresh / 2, false},
            };
            for (const auto &profile : workload::spec2006_int().all()) {
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
                for (const auto &profile : workload::spec2006_int().all()) {
                    for (const char *label : {"anvil", "double-refresh"}) {
                        set_run_ratio(sink, profile.name + "/" + label,
                                      profile.name + "/base", "normalized");
                    }
                }
            };
            sweep.render = std::bind_front(render_fig3, ops);
            return sweep;
        },
    };
}

struct DefenseCell {
    const char *label;
    Tick refresh_period;
    const char *mitigation;  ///< registry name; "" runs untracked
    bool with_anvil;
    const char *display;  ///< mitigation_comparison's row label
    bool hardware;        ///< needs new DRAM silicon
};

const DefenseCell kDefenses[] = {
    {"none", kStandardRefresh, "", false, "none (64 ms refresh)", false},
    {"double-refresh", kStandardRefresh / 2, "", false,
     "double refresh (32 ms)", false},
    {"para", kStandardRefresh, "para", false, "PARA (hardware)", true},
    {"trr", kStandardRefresh, "trr", false, "TRR (hardware)", true},
    {"anvil", kStandardRefresh, "", true, "ANVIL (software)", false},
};

/** The benign-mcf cell of @p defense; the plain machine is the baseline. */
std::string
benign_cell(const DefenseCell &defense)
{
    const bool plain = defense.mitigation[0] == '\0' &&
                       !defense.with_anvil &&
                       defense.refresh_period == kStandardRefresh;
    return std::string("benign/") + (plain ? "unprotected" : defense.label);
}

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

/** Every paper defense against every paper attack, and its cost. */
void
render_mitigation_comparison(const ResultSink &sink, std::ostream &os)
{
    const Format outcome = [](const ScenarioAggregate &agg) {
        return agg.counter_sum("flipped") != 0 ? "FLIPPED" : "stopped";
    };
    // The unprotected baseline has no slowdown of its own: 1.
    const Format slowdown = [](const ScenarioAggregate &agg) {
        return TextTable::fmt(agg.derived("slowdown", 1.0), 4);
    };
    std::vector<TableRow> rows;
    for (const DefenseCell &defense : kDefenses) {
        TableRow row{defense.display};
        for (const AttackColumn &attack : kPaperAttacks) {
            row.push_back({std::string(defense.label) + "/" + attack.label,
                           outcome});
        }
        row.push_back({benign_cell(defense), slowdown});
        row.push_back(defense.hardware ? "no (new silicon)" : "yes");
        rows.push_back(std::move(row));
    }
    // The CLFLUSH ban, after the refresh-rate rows, has no cells:
    // removing the instruction stops the CLFLUSH attacks, is bypassed by
    // the CLFLUSH-free one, and costs benign code nothing.
    TableRow ban{"CLFLUSH disallowed"};
    for (const AttackColumn &attack : kPaperAttacks) {
        ban.push_back(attack.kind == AttackKind::kClflushFreeDoubleSided
                          ? "FLIPPED"
                          : "stopped");
    }
    ban.push_back(TextTable::fmt(1.0, 4));
    ban.push_back("yes");
    rows.insert(rows.begin() + 2, std::move(ban));
    paper_table("Mitigation comparison: which defenses stop which attacks, "
                "and at what cost",
                {"Defense", "1-sided CLFLUSH", "2-sided CLFLUSH",
                 "2-sided CLFLUSH-free", "mcf slowdown",
                 "deployable on existing HW?"},
                sink, rows)
        .print(os);

    // ANVIL's cost is Figure 3's average and peak slowdown.
    const auto percent = [](const PaperValue &norm) {
        return TextTable::fmt((norm.value - 1.0) * 100.0, 0);
    };
    os << "\nPaper's claims: double refresh loses to the "
       << kDoubleSided.flip_ms.text()
       << " double-sided attack; the CLFLUSH ban loses to the "
          "eviction-based attack; hardware TRR/PARA work but do not exist "
          "in deployed DRAM; ANVIL stops all three on stock hardware for ~"
       << percent(kFig3Paper.anvil_avg) << "-"
       << percent(kFig3Paper.anvil_peak) << " % overhead.\n";
}

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
                s.name = benign_cell(defense);
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
            sweep.render = render_mitigation_comparison;
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

/** Each tracker's miss rate per attack and its cost under thrash. */
void
render_mitigation_matrix(const ResultSink &sink, std::ostream &os)
{
    std::vector<TableRow> rows;
    for (const char *tracker : kMatrixTrackers) {
        TableRow row{tracker};
        for (const AttackColumn &attack : kAttackColumns) {
            row.push_back({std::string(tracker) + "/" + attack.label,
                           derived_of("miss_rate", 2)});
        }
        const std::string thrash = std::string(tracker) + "/thrash";
        row.push_back({thrash, derived_of("slowdown", 4)});
        row.push_back({thrash, derived_of("refreshes_per_64ms", 1)});
        rows.push_back(std::move(row));
    }
    paper_table("Mitigation matrix: per-tracker miss rate by attack kind "
                "(next-gen module), thrash slowdown, and refresh volume "
                "under thrash",
                {"Tracker", "1-sided", "2-sided", "CLFLUSH-free",
                 "half-double", "thrash slowdown",
                 "refreshes/" + TextTable::fmt(to_ms(kStandardRefresh), 0) +
                     "ms (thrash)"},
                sink, rows)
        .print(os);
    os << "\nmiss rate = fraction of trials where the attack still flipped "
          "a bit; thrash slowdown = mcf run time under tracker-thrash, "
          "normalized to the untracked machine.\n";
}

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
                                  (run_ms_total / to_ms(kStandardRefresh))
                            : 0.0);
                }
            };
            sweep.render = render_mitigation_matrix;
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
            const double run_sec = sweep_argument(cli, 1.0);
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
