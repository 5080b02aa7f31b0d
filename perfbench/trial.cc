#include "trial.hh"

#include <chrono>
#include <optional>
#include <stdexcept>

#include "anvil/anvil.hh"
#include "attack/hammer.hh"
#include "cache/hierarchy.hh"
#include "dram/dram_system.hh"
#include "mitigations/registry.hh"
#include "pmu/pmu.hh"
#include "scenario/builder.hh"
#include "scenario/testbed.hh"

namespace perfbench {
namespace {

using namespace anvil;
using Clock = std::chrono::steady_clock;

/// Accesses recorded per trial for the replays: the first 2^19 of the
/// run (most tracker_zoo trials whole), bounding a traced trial's
/// stream to about 32 MB.
constexpr std::size_t kMaxRecorded = std::size_t{1} << 19;

/// Steps timed per tenant after the run (a hammer step is ~10-30
/// accesses, a workload step one).
constexpr std::uint64_t kWorkloadSteps = 16384;
constexpr std::uint64_t kHammerSteps = 1024;

/// Tracker replayed on cells that configure none, so the hook cost is
/// measured on every workload's DRAM stream (the paper's TRR baseline).
constexpr const char *kStandInTracker = "trr";

/// Replay results are folded into this so no timed call can be elided.
volatile std::uint64_t g_sink = 0;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
per_call_ns(double seconds, std::uint64_t calls)
{
    return ratio(seconds * 1e9, static_cast<double>(calls));
}

std::uint64_t
retired_accesses(const mem::MemorySystem &machine)
{
    std::uint64_t n = 0;
    for (Pid pid = 0; pid < machine.process_count(); ++pid)
        n += machine.process(pid).accesses();
    return n;
}

/** One access of the run, and whether PEBS sampling was armed for it. */
struct Recorded {
    mem::AccessInfo info;
    bool sampling = false;
};

/** Records the run phase's access stream through add_observer. */
class Recorder
{
  public:
    explicit Recorder(scenario::Execution &e) : pmu_(e.pmu())
    {
        e.machine().add_observer(
            [this](const mem::AccessInfo &info) { observe(info); });
    }
    Recorder(const Recorder &) = delete;
    Recorder &operator=(const Recorder &) = delete;

    void
    start()
    {
        last_pending_ = pmu_.pending_samples();
        recording_ = true;
    }
    void stop() { recording_ = false; }

    const std::vector<Recorded> &stream() const { return stream_; }

    /**
     * PEBS records the PMU produced while recording. The PMU appends at
     * most one record per access, in on_access, which runs just before
     * the observers; so the growth of pending_samples() between two
     * observed accesses counts every record, across the detector's
     * drains too.
     */
    std::uint64_t pebs_records() const { return pebs_records_; }

  private:
    void
    observe(const mem::AccessInfo &info)
    {
        if (!recording_)
            return;
        const std::size_t pending = pmu_.pending_samples();
        pebs_records_ +=
            pending >= last_pending_ ? pending - last_pending_ : pending;
        last_pending_ = pending;
        if (stream_.size() < kMaxRecorded)
            stream_.push_back({info, pmu_.sampling_enabled()});
    }

    pmu::Pmu &pmu_;
    bool recording_ = false;
    std::size_t last_pending_ = 0;
    std::uint64_t pebs_records_ = 0;
    std::vector<Recorded> stream_;
};

template <typename Item, typename Call>
Span
time_calls(const std::vector<Item> &items, Call &&call)
{
    const auto t0 = Clock::now();
    for (const Item &item : items)
        call(item);
    return {seconds_since(t0), items.size()};
}

/** Host cost of K steps of one tenant, and the accesses they made. */
struct StepCost {
    Span span;
    std::uint64_t accesses = 0;      ///< accesses made by the K steps
    std::uint64_t run_accesses = 0;  ///< the tenant's accesses in run()
    bool attacker = false;
};

template <typename Step>
StepCost
time_steps(const mem::MemorySystem &machine, Pid pid, std::uint64_t steps,
           Step &&step)
{
    const std::uint64_t before = machine.process(pid).accesses();
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < steps; ++i)
        step();
    StepCost cost;
    cost.span = {seconds_since(t0), steps};
    cost.accesses = machine.process(pid).accesses() - before;
    return cost;
}

/** Reads the live layers' public statistics into @p out. */
void
read_live_counts(scenario::Execution &e, const Recorder &recorder,
                 LayerTotals &out)
{
    const mem::MemorySystem &m = e.machine();
    for (Pid pid = 0; pid < m.process_count(); ++pid) {
        const mem::AddressSpace &space = m.process(pid);
        out.tlb_hits += space.tlb_hits();
        out.tlb_lookups += space.tlb_hits() + space.tlb_misses();
    }
    const cache::CacheHierarchy &h = m.hierarchy();
    out.l1_hits += h.l1().stats().hits;
    out.l1_accesses += h.l1().stats().accesses;
    out.l2_hits += h.l2().stats().hits;
    out.l2_accesses += h.l2().stats().accesses;
    const cache::CacheStats llc = h.llc_stats();
    out.llc_misses += llc.misses;
    out.llc_accesses += llc.accesses;

    const dram::DramSystem::Stats &d = m.dram().stats();
    out.dram_accesses += d.accesses;
    out.dram_row_hits += d.row_hits;
    out.refresh_stall_ticks += d.refresh_stall;
    out.selective_refreshes += d.selective_refreshes;
    out.sim_ticks += m.now();

    if (const mitigations::Mitigation *tracker = e.mitigation()) {
        out.mitigation_refreshes += tracker->stats().neighbor_refreshes;
        out.mitigation_evictions += tracker->stats().table_evictions;
    }
    out.pebs_records += recorder.pebs_records();
    if (const detector::Anvil *anvil = e.anvil()) {
        const detector::AnvilStats &s = anvil->stats();
        out.stage1_windows += s.stage1_windows;
        out.stage2_windows += s.stage2_windows;
        out.detections += s.detections;
        out.true_detections += s.detections - s.false_positive_detections;
        out.fp_refreshes += s.false_positive_refreshes;
    }
}

/**
 * Times K steps of every tenant on the live machine. A cell without an
 * attacker gets a stand-in CLFLUSH double-sided hammer, so Hammer::step
 * is measured on every workload's machine state.
 */
std::vector<StepCost>
time_tenants(scenario::Execution &e,
             const std::vector<std::uint64_t> &run_accesses)
{
    mem::MemorySystem &m = e.machine();
    std::vector<StepCost> costs;
    bool has_attacker = false;
    for (std::size_t i = 0; i < e.tenants().size(); ++i) {
        const scenario::BuiltTenant &t = e.tenants()[i];
        StepCost cost;
        if (t.is_attacker) {
            attack::Hammer &hammer = *e.attacks()[t.payload].hammer;
            cost = time_steps(m, t.pid, kHammerSteps,
                              [&hammer] { hammer.step(); });
        } else {
            workload::Workload &load = *e.workloads()[t.payload];
            cost = time_steps(m, t.pid, kWorkloadSteps,
                              [&load] { load.step(); });
        }
        cost.run_accesses = run_accesses[i];
        cost.attacker = t.is_attacker;
        has_attacker = has_attacker || t.is_attacker;
        costs.push_back(cost);
    }
    if (!has_attacker) {
        scenario::Attacker intruder(m);
        const auto target = scenario::weakest_double_sided(m, intruder);
        if (!target)
            throw std::runtime_error("stand-in attacker found no target");
        attack::ClflushDoubleSided hammer(m, intruder.pid(), *target);
        StepCost cost = time_steps(m, intruder.pid(), kHammerSteps,
                                   [&hammer] { hammer.step(); });
        cost.attacker = true;
        costs.push_back(cost);
    }
    return costs;
}

/**
 * Replays the recorded stream into each layer's public call, each
 * timed alone, and folds the step costs into @p out.
 */
void
replay_layers(scenario::Execution &e, const scenario::ScenarioSpec &cell,
              const runner::TrialContext &ctx,
              const std::vector<Recorded> &stream,
              const std::vector<StepCost> &steps, bool exact_cache_replay,
              LayerTotals &out)
{
    mem::MemorySystem &m = e.machine();
    std::uint64_t sink = 0;

    out.mem_translate += time_calls(stream, [&](const Recorded &r) {
        sink += m.process(r.info.pid).translate(r.info.va);
    });

    const auto replay_machine = [&] {
        return time_calls(stream, [&](const Recorded &r) {
            sink += m.access(r.info.pid, r.info.va, r.info.type).latency;
        });
    };
    const Span access = replay_machine();
    out.mem_access += access;

    // Detector cost: the same replay with the detector running and after
    // Anvil::stop(). Cells without one attach a baseline stand-in. The
    // order alternates between trials so that the warming each replay
    // leaves behind cancels out of the difference.
    std::optional<detector::Anvil> stand_in;
    detector::Anvil *detector = e.anvil();
    if (detector == nullptr) {
        stand_in.emplace(m, e.pmu(), detector::AnvilConfig::baseline());
        detector = &*stand_in;
    }
    const bool on_first = ctx.spec().global_index % 2 == 0;
    for (const bool on : {on_first, !on_first}) {
        if (on)
            detector->start();
        else
            detector->stop();
        (on ? out.anvil_on : out.anvil_off) += replay_machine();
    }
    detector->stop();

    const double access_s = ratio(access.seconds,
                                  static_cast<double>(access.calls));
    for (const StepCost &c : steps) {
        const double self_s =
            c.span.seconds - static_cast<double>(c.accesses) * access_s;
        (c.attacker ? out.attack_step : out.workload_step) += c.span;
        (c.attacker ? out.attack_self_s : out.workload_self_s) += self_s;
        out.run_covered_s += ratio(static_cast<double>(c.run_accesses) *
                                       c.span.seconds,
                                   static_cast<double>(c.accesses));
    }

    cache::CacheHierarchy hierarchy(m.config().cache);
    std::uint64_t replay_misses = 0;
    out.cache_access += time_calls(stream, [&](const Recorded &r) {
        replay_misses += hierarchy.access(r.info.pa, r.info.type).llc_miss;
    });
    std::uint64_t recorded_misses = 0;
    std::vector<std::pair<Addr, Tick>> dram_stream;
    for (const Recorded &r : stream) {
        if (r.info.llc_miss) {
            ++recorded_misses;
            dram_stream.emplace_back(r.info.pa,
                                     r.info.complete_time - r.info.latency);
        }
    }
    if (exact_cache_replay) {
        ++out.llc_replay_checked;
        out.llc_replay_mismatched += replay_misses != recorded_misses;
    }

    const auto replay_dram = [&](dram::DramSystem &device) {
        return time_calls(dram_stream, [&](const std::pair<Addr, Tick> &a) {
            sink += device.access(a.first, a.second).latency;
        });
    };
    {
        dram::DramSystem device(m.config().dram);
        out.dram_access += replay_dram(device);
    }
    {
        dram::DramSystem device(m.config().dram);
        const std::string &name =
            cell.mitigation.empty() ? kStandInTracker : cell.mitigation;
        const auto tracker = mitigations::mitigation_registry().at(name).make(
            device, ctx.seed_for("mitigation"));
        out.dram_tracked += replay_dram(device);
    }

    mem::MemorySystem host(m.config());
    pmu::Pmu pmu(host);
    bool sampling = false;
    out.pmu_access += time_calls(stream, [&](const Recorded &r) {
        if (r.sampling != sampling) {
            sampling = r.sampling;
            if (sampling)
                pmu.enable_sampling(pmu::SampleConfig{});
            else
                pmu.disable_sampling();
        }
        pmu.on_access(r.info);
    });
    sink += pmu.counter(pmu::Event::kLoadsRetired).value();
    g_sink = sink;
}

}  // namespace

TrialSpans &
TrialSpans::operator+=(const TrialSpans &o)
{
    build_s += o.build_s;
    run_s += o.run_s;
    emit_s += o.emit_s;
    accesses += o.accesses;
    return *this;
}

LayerTotals &
LayerTotals::operator+=(const LayerTotals &o)
{
    spans += o.spans;
    workload_step += o.workload_step;
    attack_step += o.attack_step;
    workload_self_s += o.workload_self_s;
    attack_self_s += o.attack_self_s;
    run_covered_s += o.run_covered_s;
    mem_access += o.mem_access;
    mem_translate += o.mem_translate;
    cache_access += o.cache_access;
    dram_access += o.dram_access;
    dram_tracked += o.dram_tracked;
    pmu_access += o.pmu_access;
    anvil_on += o.anvil_on;
    anvil_off += o.anvil_off;
    tlb_hits += o.tlb_hits;
    tlb_lookups += o.tlb_lookups;
    l1_hits += o.l1_hits;
    l1_accesses += o.l1_accesses;
    l2_hits += o.l2_hits;
    l2_accesses += o.l2_accesses;
    llc_misses += o.llc_misses;
    llc_accesses += o.llc_accesses;
    dram_accesses += o.dram_accesses;
    dram_row_hits += o.dram_row_hits;
    refresh_stall_ticks += o.refresh_stall_ticks;
    sim_ticks += o.sim_ticks;
    selective_refreshes += o.selective_refreshes;
    mitigation_refreshes += o.mitigation_refreshes;
    mitigation_evictions += o.mitigation_evictions;
    pebs_records += o.pebs_records;
    stage1_windows += o.stage1_windows;
    stage2_windows += o.stage2_windows;
    detections += o.detections;
    true_detections += o.true_detections;
    fp_refreshes += o.fp_refreshes;
    llc_replay_checked += o.llc_replay_checked;
    llc_replay_mismatched += o.llc_replay_mismatched;
    rerun_mismatched += o.rerun_mismatched;
    return *this;
}

std::vector<std::pair<std::string, double>>
LayerTotals::metrics() const
{
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"scenario.build_s", spans.build_s},
        {"scenario.run_s", spans.run_s},
        {"scenario.emit_s", spans.emit_s},
        {"workload.step_ns",
         per_call_ns(workload_step.seconds, workload_step.calls)},
        {"workload.self_ns", per_call_ns(workload_self_s, workload_step.calls)},
        {"attack.step_ns", per_call_ns(attack_step.seconds, attack_step.calls)},
        {"attack.self_ns", per_call_ns(attack_self_s, attack_step.calls)},
        {"mem.access_ns", per_call_ns(mem_access.seconds, mem_access.calls)},
        {"mem.translate_ns",
         per_call_ns(mem_translate.seconds, mem_translate.calls)},
        {"mem.tlb_hit_ratio", ratio(d(tlb_hits), d(tlb_lookups))},
        {"cache.access_ns",
         per_call_ns(cache_access.seconds, cache_access.calls)},
        {"cache.l1_hit_ratio", ratio(d(l1_hits), d(l1_accesses))},
        {"cache.l2_hit_ratio", ratio(d(l2_hits), d(l2_accesses))},
        {"cache.llc_miss_ratio", ratio(d(llc_misses), d(llc_accesses))},
        {"dram.access_ns", per_call_ns(dram_access.seconds, dram_access.calls)},
        {"dram.accesses", d(dram_accesses)},
        {"dram.row_hit_ratio", ratio(d(dram_row_hits), d(dram_accesses))},
        {"dram.refresh_stall_share",
         ratio(d(refresh_stall_ticks), d(sim_ticks))},
        {"dram.selective_refreshes", d(selective_refreshes)},
        {"mitigations.hook_ns",
         per_call_ns(dram_tracked.seconds - dram_access.seconds,
                     dram_access.calls)},
        {"mitigations.refreshes", d(mitigation_refreshes)},
        {"mitigations.evictions", d(mitigation_evictions)},
        {"pmu.on_access_ns", per_call_ns(pmu_access.seconds, pmu_access.calls)},
        {"pmu.pebs_records", d(pebs_records)},
        {"anvil.host_ns",
         per_call_ns(anvil_on.seconds - anvil_off.seconds, anvil_on.calls)},
        {"anvil.stage1_windows", d(stage1_windows)},
        {"anvil.stage2_windows", d(stage2_windows)},
        {"anvil.detections", d(detections)},
        {"anvil.detect_yield", ratio(d(true_detections), d(stage2_windows))},
        {"anvil.fp_refreshes", d(fp_refreshes)},
        {"trace.unattributed_share", 1.0 - ratio(run_covered_s, spans.run_s)},
    };
}

namespace {

/**
 * The traced pass: rebuilds and reruns the trial with its access stream
 * recorded, then measures every layer into @p out. The trial is a pure
 * function of its seed, so this pass repeats the timed one access for
 * access while the timed pass stays free of recording cost.
 */
void
trace_trial(const scenario::ScenarioSpec &cell,
            const runner::TrialContext &ctx, const TrialSpans &timed,
            LayerTotals &out)
{
    // Declared first so it outlives the machine whose observer it is.
    std::optional<Recorder> recorder;
    scenario::ScenarioBuilder builder(cell, ctx);
    scenario::Execution &e = builder.build();
    recorder.emplace(e);

    std::vector<std::uint64_t> run_accesses;
    for (const scenario::BuiltTenant &t : e.tenants())
        run_accesses.push_back(e.machine().process(t.pid).accesses());
    const bool cold_caches = retired_accesses(e.machine()) == 0;
    recorder->start();
    builder.run();
    recorder->stop();

    bool has_attacker = false;
    for (std::size_t i = 0; i < e.tenants().size(); ++i) {
        const scenario::BuiltTenant &t = e.tenants()[i];
        run_accesses[i] =
            e.machine().process(t.pid).accesses() - run_accesses[i];
        has_attacker = has_attacker || t.is_attacker;
    }
    out.spans = timed;
    out.rerun_mismatched += retired_accesses(e.machine()) != timed.accesses;
    read_live_counts(e, *recorder, out);
    const std::vector<StepCost> steps = time_tenants(e, run_accesses);
    // Without CLFLUSH and from cold caches, a fresh hierarchy fed the
    // same stream must miss the LLC exactly where the live one did.
    replay_layers(e, cell, ctx, recorder->stream(), steps,
                  cold_caches && !has_attacker, out);
}

}  // namespace

runner::TrialResult
timed_trial(const scenario::ScenarioSpec &cell,
            const runner::TrialContext &ctx, TrialSpans &spans,
            LayerTotals *layers)
{
    runner::TrialResult result;
    {
        scenario::ScenarioBuilder builder(cell, ctx);
        auto t0 = Clock::now();
        scenario::Execution &e = builder.build();
        spans.build_s = seconds_since(t0);

        t0 = Clock::now();
        builder.run();
        spans.run_s = seconds_since(t0);

        t0 = Clock::now();
        result = builder.emit();
        spans.emit_s = seconds_since(t0);
        spans.accesses = retired_accesses(e.machine());
    }
    if (layers != nullptr)
        trace_trial(cell, ctx, spans, *layers);
    return result;
}

}  // namespace perfbench
