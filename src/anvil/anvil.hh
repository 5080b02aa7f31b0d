/**
 * @file
 * ANVIL: the software rowhammer detector/protector (paper Section 3).
 *
 * The detector is a two-stage state machine driven by the simulated
 * clock, consuming only what a kernel module consumes on real hardware:
 * performance-counter values, counter-overflow interrupts, PEBS sample
 * records (virtual address + data source), per-process page tables (the
 * task_struct walk), and the reverse-engineered physical-to-DRAM mapping.
 *
 *   Stage 1  arm the LLC-miss counter to interrupt at the miss threshold;
 *            if the interrupt beats the tc window timer, escalate.
 *   Stage 2  sample miss addresses for ts (loads, stores, or both,
 *            chosen from the load-miss fraction), then analyze:
 *            rows with high estimated access rate (row locality) that
 *            share a bank with other sampled rows (bank locality) are
 *            aggressors.
 *   Protect  read one word from each row adjacent to an aggressor,
 *            refreshing the potential victims; then restart Stage 1.
 */
#ifndef ANVIL_ANVIL_ANVIL_HH
#define ANVIL_ANVIL_ANVIL_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "anvil/config.hh"
#include "common/types.hh"
#include "dram/address_map.hh"
#include "mem/memory_system.hh"
#include "pmu/pmu.hh"

namespace anvil::detector {

/** One aggressor row identified by the sample analysis. */
struct Aggressor {
    std::uint32_t flat_bank = 0;
    std::uint32_t row = 0;
    std::uint32_t samples = 0;
    double estimated_accesses = 0.0;  ///< est. accesses within ts
};

/** One detection (possibly a false positive) and its response. */
struct Detection {
    Tick time = 0;
    std::vector<Aggressor> aggressors;
    std::uint32_t refreshes_performed = 0;
    bool ground_truth_attack = false;  ///< harness-provided label
    /// The process whose samples dominate the accepted aggressor rows —
    /// the tenant a system-wide daemon would blame (ties break to the
    /// lowest pid); kInvalidPid when no sample resolved. Attribution is
    /// bookkeeping only: it never feeds back into detection logic.
    Pid offender_pid = kInvalidPid;
};

/** Aggregate detector statistics. */
struct AnvilStats {
    std::uint64_t stage1_windows = 0;
    std::uint64_t stage1_triggers = 0;   ///< windows escalating to Stage 2
    std::uint64_t stage2_windows = 0;
    std::uint64_t detections = 0;
    std::uint64_t selective_refreshes = 0;
    std::uint64_t false_positive_detections = 0;
    std::uint64_t false_positive_refreshes = 0;
    Tick overhead = 0;  ///< core time charged to the detector
};

/** The detector module. */
class Anvil
{
  public:
    /**
     * @param mem    the machine (clock, page tables, DRAM read primitive)
     * @param pmu    the performance-monitoring unit to program
     * @param config detector parameters
     * @throws std::invalid_argument unless @p pmu is mem.pmu()
     */
    Anvil(mem::MemorySystem &mem, pmu::Pmu &pmu, const AnvilConfig &config);
    ~Anvil();

    Anvil(const Anvil &) = delete;
    Anvil &operator=(const Anvil &) = delete;

    /**
     * Loads the module: begins Stage-1 monitoring.
     * @throws std::logic_error if the machine's clock already holds an
     *         alarm (another detector is running on it).
     */
    void start();

    /** Unloads the module: cancels all monitoring and its window alarm. */
    void stop();

    bool running() const { return running_; }

    /**
     * Ground-truth oracle supplied by the experiment harness: returns
     * true while an attack is actually running. Used only for
     * false-positive accounting, never by the detector logic.
     */
    void set_ground_truth(std::function<bool()> oracle);

    const AnvilStats &stats() const { return stats_; }
    const std::vector<Detection> &detections() const { return detections_; }
    const AnvilConfig &config() const { return config_; }

  private:
    enum class Stage { kIdle, kStage1, kStage2 };

    void begin_stage1();
    void on_miss_overflow();  ///< Stage-1 PMI: threshold beaten the timer
    void on_stage1_timeout();
    void begin_stage2();
    void on_stage2_end();
    void analyze_and_protect(const std::vector<pmu::PebsRecord> &samples,
                             std::uint64_t misses_in_ts);
    void protect(const std::vector<Aggressor> &aggressors,
                 Detection &detection);
    void charge(Cycles cycles);

    mem::MemorySystem &mem_;
    pmu::Pmu &pmu_;
    AnvilConfig config_;
    const dram::AddressMap &dram_map_;

    bool running_ = false;
    Stage stage_ = Stage::kIdle;

    // Stage-bookkeeping snapshots.
    std::uint64_t misses_at_stage_start_ = 0;
    std::uint64_t misses_at_stage1_start_ = 0;
    std::uint64_t load_misses_at_stage_start_ = 0;

    /// Scratch buffer the PMU's PEBS records are swapped into at the end
    /// of each Stage-2 window; reused across windows so the steady state
    /// allocates nothing.
    std::vector<pmu::PebsRecord> sample_buf_;

    std::function<bool()> ground_truth_;
    AnvilStats stats_;
    std::vector<Detection> detections_;
};

}  // namespace anvil::detector

#endif  // ANVIL_ANVIL_ANVIL_HH
