#include "anvil/anvil.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

#include "common/log.hh"

namespace anvil::detector {

AnvilConfig
AnvilConfig::baseline()
{
    AnvilConfig config;
    config.name = "ANVIL-baseline";
    return config;
}

AnvilConfig
AnvilConfig::light()
{
    AnvilConfig config;
    config.name = "ANVIL-light";
    config.llc_miss_threshold = 10000;
    return config;
}

AnvilConfig
AnvilConfig::heavy()
{
    AnvilConfig config;
    config.name = "ANVIL-heavy";
    config.tc = ms(2.0);
    config.ts = ms(2.0);
    return config;
}

Anvil::Anvil(mem::MemorySystem &mem, pmu::Pmu &pmu,
             const AnvilConfig &config)
    : mem_(mem),
      pmu_(pmu),
      config_(config),
      dram_map_(mem.dram().address_map())
{
}

Anvil::~Anvil()
{
    stop();
}

void
Anvil::set_ground_truth(std::function<bool()> oracle)
{
    ground_truth_ = std::move(oracle);
}

void
Anvil::reset_stats()
{
    stats_ = AnvilStats();
    detections_.clear();
}

void
Anvil::charge(Cycles cycles)
{
    stats_.overhead += mem_.core().cycles_to_ticks(cycles);
    mem_.advance_cycles(cycles);
}

void
Anvil::start()
{
    if (running_)
        return;
    // Refused before anything is armed, so the running one is untouched.
    if (mem_.clock().alarm_pending())
        throw std::logic_error("Anvil::start: the machine's clock already "
                               "has an alarm set");
    running_ = true;
    begin_stage1();
}

void
Anvil::stop()
{
    if (!running_)
        return;
    running_ = false;
    stage_ = Stage::kIdle;
    mem_.clock().cancel_alarm();
    pmu_.counter(pmu::Event::kLlcMisses).disarm();
    pmu_.disable_sampling();
}

void
Anvil::begin_stage1()
{
    if (!config_.two_stage) {
        // Ablation mode: no miss-rate gate, sample every window.
        load_misses_at_stage_start_ =
            pmu_.counter(pmu::Event::kLlcLoadMisses).value();
        misses_at_stage1_start_ =
            pmu_.counter(pmu::Event::kLlcMisses).value();
        begin_stage2();
        return;
    }
    stage_ = Stage::kStage1;
    ++stats_.stage1_windows;
    charge(config_.stage1_check_cycles);

    load_misses_at_stage_start_ =
        pmu_.counter(pmu::Event::kLlcLoadMisses).value();
    misses_at_stage1_start_ = 0;  // arm_overflow resets the counter
    // Arm the miss counter to interrupt at the threshold; if the PMI wins
    // the race against the tc window timer, the rate is attack-class.
    pmu_.counter(pmu::Event::kLlcMisses)
        .arm_overflow(config_.llc_miss_threshold,
                      [this] { on_miss_overflow(); });
    mem_.clock().set_alarm_in(config_.tc, [this] { on_stage1_timeout(); });
}

void
Anvil::on_stage1_timeout()
{
    // Miss rate stayed below threshold for the whole window: benign.
    pmu_.counter(pmu::Event::kLlcMisses).disarm();
    begin_stage1();
}

void
Anvil::on_miss_overflow()
{
    if (!running_ || stage_ != Stage::kStage1)
        return;
    mem_.clock().cancel_alarm();
    ++stats_.stage1_triggers;
    begin_stage2();
}

void
Anvil::begin_stage2()
{
    stage_ = Stage::kStage2;
    ++stats_.stage2_windows;

    // Choose what to sample from the load share of Stage-1's misses.
    const std::uint64_t total =
        pmu_.counter(pmu::Event::kLlcMisses).value() -
        misses_at_stage1_start_;
    const std::uint64_t loads =
        pmu_.counter(pmu::Event::kLlcLoadMisses).value() -
        load_misses_at_stage_start_;
    const double load_fraction =
        total > 0 ? static_cast<double>(std::min(loads, total)) /
                        static_cast<double>(total)
                  : 1.0;

    pmu::SampleConfig sc;
    sc.mean_period = static_cast<Tick>(
        static_cast<double>(kTicksPerSec) / config_.samples_per_sec);
    // "We set the clock cycle value to match last-level cache miss
    // latency so that we only sample loads that miss in the L3 cache"
    // (Section 3.3): every DRAM-served load qualifies — including
    // row-buffer hits, which are only marginally slower than an LLC hit —
    // while on-chip hits do not.
    sc.load_latency_threshold = mem_.core().cycles_to_ticks(
        mem_.config().cache.llc_latency + 5);
    sc.sample_loads = load_fraction >= config_.store_only_fraction;
    sc.sample_stores = load_fraction <= config_.load_only_fraction;

    pmu_.discard_samples();  // discard anything stale
    pmu_.enable_sampling(sc);
    misses_at_stage_start_ = pmu_.counter(pmu::Event::kLlcMisses).value();

    mem_.clock().set_alarm_in(config_.ts, [this] { on_stage2_end(); });
}

void
Anvil::on_stage2_end()
{
    pmu_.disable_sampling();
    pmu_.drain_samples(sample_buf_);
    const std::vector<pmu::PebsRecord> &samples = sample_buf_;
    const std::uint64_t misses_in_ts =
        pmu_.counter(pmu::Event::kLlcMisses).value() -
        misses_at_stage_start_;

    // Sampling PMIs plus the end-of-window analysis run on the victim's
    // core; this is where nearly all of ANVIL's overhead comes from
    // (Section 4.3).
    charge(static_cast<Cycles>(samples.size()) *
               config_.per_sample_cycles +
           config_.analysis_cycles);

    analyze_and_protect(samples, misses_in_ts);
    begin_stage1();
}

void
Anvil::analyze_and_protect(const std::vector<pmu::PebsRecord> &samples,
                           std::uint64_t misses_in_ts)
{
    if (samples.empty())
        return;

    // Resolve each sampled VA through the owning process's page table
    // (the kernel-module task_struct walk) and the reverse-engineered
    // DRAM mapping.
    struct RowKey {
        std::uint32_t bank;
        std::uint32_t row;
        bool operator<(const RowKey &o) const
        {
            return bank != o.bank ? bank < o.bank : row < o.row;
        }
    };
    std::map<RowKey, std::uint32_t> row_samples;
    std::map<RowKey, std::map<Pid, std::uint32_t>> row_pids;
    std::map<std::uint32_t, std::uint32_t> bank_samples;
    std::uint32_t resolved = 0;
    for (const pmu::PebsRecord &record : samples) {
        const Addr pa = mem_.process(record.pid).translate(record.va);
        if (pa == kInvalidAddr)
            continue;
        const dram::DramCoord coord = dram_map_.decode(pa);
        const std::uint32_t bank = dram_map_.flat_bank(coord);
        ++row_samples[RowKey{bank, coord.row}];
        ++row_pids[RowKey{bank, coord.row}][record.pid];
        ++bank_samples[bank];
        ++resolved;
    }
    if (resolved == 0)
        return;

    if (Logger::enabled(LogLevel::kDebug)) {
        for (const auto &[key, count] : row_samples) {
            ANVIL_DEBUG("anvil.analyze")
                << "bank " << key.bank << " row " << key.row << ": "
                << count << "/" << resolved << " samples";
        }
    }

    // Row locality: estimate each sampled row's access count within ts
    // and compare against the rate a successful attack needs.
    const double needed_in_ts =
        static_cast<double>(config_.min_hammer_accesses) *
        static_cast<double>(config_.ts) /
        static_cast<double>(config_.refresh_period) /
        config_.detection_safety;

    // The sample-count thresholds are calibrated for a ~30-sample window;
    // scale them down when the window collected fewer (ANVIL-heavy's 2 ms
    // windows see ~10 samples).
    const double sample_scale =
        std::min(1.0, static_cast<double>(resolved) /
                          config_.nominal_window_samples);
    const auto scaled = [&](std::uint32_t nominal, std::uint32_t floor) {
        return std::max(floor, static_cast<std::uint32_t>(std::lround(
                                   nominal * sample_scale)));
    };
    const std::uint32_t min_row = scaled(config_.min_row_samples, 2);
    const std::uint32_t min_bank =
        config_.min_bank_samples == 0
            ? 0
            : scaled(config_.min_bank_samples, 1);

    std::vector<Aggressor> aggressors;
    for (const auto &[key, count] : row_samples) {
        if (count < min_row)
            continue;
        const double estimated =
            static_cast<double>(count) / static_cast<double>(resolved) *
            static_cast<double>(misses_in_ts);
        if (estimated < needed_in_ts)
            continue;
        // Bank locality: hammering requires at least two rows in the same
        // bank (otherwise the row buffer absorbs the accesses); thrashing
        // patterns spread across banks fail this check.
        const std::uint32_t others = bank_samples[key.bank] - count;
        if (others < min_bank)
            continue;
        aggressors.push_back(
            Aggressor{key.bank, key.row, count, estimated});
    }
    if (aggressors.empty())
        return;

    Detection detection;
    detection.time = mem_.now();
    detection.aggressors = aggressors;
    detection.ground_truth_attack = ground_truth_ ? ground_truth_() : false;
    // Blame the process whose samples dominate the accepted aggressor
    // rows (ties go to the lowest pid — map order). The attribution is
    // pure bookkeeping: it never feeds back into detection or protection.
    std::map<Pid, std::uint32_t> offender_votes;
    for (const Aggressor &a : aggressors) {
        for (const auto &[pid, count] : row_pids[RowKey{a.flat_bank, a.row}])
            offender_votes[pid] += count;
    }
    std::uint32_t best_votes = 0;
    for (const auto &[pid, votes] : offender_votes) {
        if (votes > best_votes) {
            best_votes = votes;
            detection.offender_pid = pid;
        }
    }
    protect(aggressors, detection);

    ++stats_.detections;
    stats_.selective_refreshes += detection.refreshes_performed;
    if (!detection.ground_truth_attack) {
        ++stats_.false_positive_detections;
        stats_.false_positive_refreshes += detection.refreshes_performed;
    }
    detections_.push_back(std::move(detection));

    ANVIL_INFO("anvil") << config_.name << " detection at "
                        << to_ms(mem_.now()) << " ms: "
                        << aggressors.size() << " aggressor row(s)";
}

void
Anvil::protect(const std::vector<Aggressor> &aggressors,
               Detection &detection)
{
    const std::uint32_t rows_per_bank = mem_.dram().config().rows_per_bank;
    std::set<std::pair<std::uint32_t, std::uint32_t>> victims;
    for (const Aggressor &aggressor : aggressors) {
        for (std::uint32_t d = 1; d <= config_.blast_radius; ++d) {
            if (aggressor.row >= d)
                victims.insert({aggressor.flat_bank, aggressor.row - d});
            if (aggressor.row + d < rows_per_bank)
                victims.insert({aggressor.flat_bank, aggressor.row + d});
        }
    }
    for (const auto &[bank, row] : victims) {
        // One read refreshes the whole victim row (Section 3.2).
        mem_.refresh_row_phys(mem_.dram().row_to_addr(bank, row));
        ++detection.refreshes_performed;
    }
}

}  // namespace anvil::detector
