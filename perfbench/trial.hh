/**
 * @file
 * The benchmark's trial body: one scenario cell built, run and emitted
 * through ScenarioBuilder exactly as the registered sweeps do, with host
 * time spans around each phase. In a traced run the body additionally
 * reruns the trial with its access stream recorded and replays that
 * stream into each layer's public entry point to time the layer alone.
 * Every span lives in the benchmark's own files; the simulator is not
 * instrumented.
 */
#ifndef PERFBENCH_TRIAL_HH
#define PERFBENCH_TRIAL_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runner/trial.hh"
#include "scenario/spec.hh"

namespace perfbench {

/** Host time of one timed loop over a layer call, and how many calls. */
struct Span {
    double seconds = 0.0;
    std::uint64_t calls = 0;

    Span &
    operator+=(const Span &o)
    {
        seconds += o.seconds;
        calls += o.calls;
        return *this;
    }
};

/** Host spans and simulated work of one trial (always measured). */
struct TrialSpans {
    double build_s = 0.0;
    double run_s = 0.0;
    double emit_s = 0.0;
    /// Simulated loads plus stores retired in the trial, all processes.
    std::uint64_t accesses = 0;

    TrialSpans &operator+=(const TrialSpans &o);
};

/**
 * Per-layer measurements summed over the traced trials of a sweep.
 * Replay spans are host time over the replayed calls; counts are read
 * from each layer's public statistics on the live machine right after
 * emit(), before any replay disturbs them.
 */
struct LayerTotals {
    TrialSpans spans;

    Span workload_step;    ///< Workload::step, accesses included
    Span attack_step;      ///< Hammer::step, accesses included
    double workload_self_s = 0.0;  ///< workload_step minus its accesses
    double attack_self_s = 0.0;    ///< attack_step minus its accesses
    /// Part of spans.run_s explained by the tenants' timed step costs.
    double run_covered_s = 0.0;

    Span mem_access;       ///< MemorySystem::access, live machine
    Span mem_translate;    ///< AddressSpace::translate, live machine
    Span cache_access;     ///< CacheHierarchy::access, fresh hierarchy
    Span dram_access;      ///< DramSystem::access, fresh device
    Span dram_tracked;     ///< same stream, fresh device plus tracker
    Span pmu_access;       ///< Pmu::on_access, fresh PMU
    Span anvil_on;         ///< MemorySystem::access, detector running
    Span anvil_off;        ///< same stream after Anvil::stop()

    std::uint64_t tlb_hits = 0, tlb_lookups = 0;
    std::uint64_t l1_hits = 0, l1_accesses = 0;
    std::uint64_t l2_hits = 0, l2_accesses = 0;
    std::uint64_t llc_misses = 0, llc_accesses = 0;
    std::uint64_t dram_accesses = 0, dram_row_hits = 0;
    std::uint64_t refresh_stall_ticks = 0, sim_ticks = 0;
    std::uint64_t selective_refreshes = 0;
    std::uint64_t mitigation_refreshes = 0, mitigation_evictions = 0;
    std::uint64_t pebs_records = 0;
    std::uint64_t stage1_windows = 0, stage2_windows = 0;
    std::uint64_t detections = 0, true_detections = 0;
    std::uint64_t fp_refreshes = 0;

    /// Trials whose fresh-hierarchy replay must reproduce the recorded
    /// LLC misses exactly (cold caches at run start, no CLFLUSH issuer),
    /// and how many of those did not.
    std::uint64_t llc_replay_checked = 0;
    std::uint64_t llc_replay_mismatched = 0;
    /// Trials whose recorded rerun retired a different number of
    /// accesses than the timed pass (must stay 0: trials are pure
    /// functions of their seed).
    std::uint64_t rerun_mismatched = 0;

    LayerTotals &operator+=(const LayerTotals &o);

    /** The named per-layer metrics, in report order. */
    std::vector<std::pair<std::string, double>> metrics() const;
};

/**
 * Builds, runs and emits @p cell for @p ctx, timing each phase into
 * @p spans. When @p layers is non-null the trial is traced: a second,
 * recorded pass of the same trial is replayed into every layer and
 * measured into it. The returned result is the timed pass's emit(), so
 * tracing never changes the sweep's output.
 */
anvil::runner::TrialResult
timed_trial(const anvil::scenario::ScenarioSpec &cell,
            const anvil::runner::TrialContext &ctx, TrialSpans &spans,
            LayerTotals *layers);

}  // namespace perfbench

#endif  // PERFBENCH_TRIAL_HH
