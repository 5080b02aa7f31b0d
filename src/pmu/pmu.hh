/**
 * @file
 * Simulated hardware performance-monitoring unit.
 *
 * Models the Intel facilities ANVIL is built on (paper Section 3.3):
 *
 *  - programmable event counters with an overflow interrupt, used for
 *    LONGEST_LAT_CACHE.MISS ("generates an interrupt after N misses");
 *  - the PEBS Load Latency facility: loads are sampled probabilistically;
 *    a sampled load whose latency exceeds a programmable threshold is
 *    recorded with its virtual address and data source;
 *  - the Precise Store facility: sampled stores recorded with virtual
 *    address and data source.
 *
 * The PMU observes completed accesses from the memory system exactly the
 * way the hardware observes the memory pipeline; the detector reads
 * counters and drains sample buffers, never the memory system directly.
 */
#ifndef ANVIL_PMU_PMU_HH
#define ANVIL_PMU_PMU_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/compiler.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "mem/memory_system.hh"

namespace anvil::pmu {

/** Countable architectural events. */
enum class Event : std::uint8_t {
    kLlcMisses = 0,      ///< LONGEST_LAT_CACHE.MISS
    kLlcLoadMisses,      ///< MEM_LOAD_UOPS_MISC_RETIRED.LLC_MISS
    kLlcStoreMisses,     ///< store misses out of the LLC
    kLoadsRetired,
    kStoresRetired,
    kEventCount,
};

inline constexpr std::size_t kNumEvents =
    static_cast<std::size_t>(Event::kEventCount);

/**
 * One programmable counter with an optional overflow interrupt.
 *
 * The overflow callback fires (once) when the count reaches the armed
 * threshold; re-arm for the next window, as ANVIL's Stage-1 does.
 */
class HwCounter
{
  public:
    /** Current count since the last reset. */
    std::uint64_t value() const { return value_; }

    /** Resets the count (does not disturb an armed overflow). */
    void reset() { value_ = 0; }

    /**
     * Arms an interrupt that fires when value() reaches @p threshold
     * counts *from now* (the counter is reset).
     */
    void arm_overflow(std::uint64_t threshold,
                      std::function<void()> handler);

    /** Disarms any pending overflow interrupt. */
    void disarm();

    /** True if an overflow is armed and has not fired yet. */
    bool armed() const { return armed_; }

    /** Called by the PMU when the event occurs. */
    void
    tick()
    {
        ++value_;
        if (armed_ && value_ >= threshold_)
            fire();
    }

  private:
    /** The overflow interrupt: disarms, then runs the handler. */
    ANVIL_COLD void fire();

    std::uint64_t value_ = 0;
    std::uint64_t threshold_ = 0;
    std::function<void()> handler_;
    bool armed_ = false;
};

/** One PEBS record (debug-store entry). */
struct PebsRecord {
    Pid pid = 0;
    Addr va = 0;
    AccessType type = AccessType::kLoad;
    DataSource source = DataSource::kL1;
    Tick latency = 0;
    Tick time = 0;
};

/** Configuration of the sampling facilities. */
struct SampleConfig {
    /// Mean interval between samples. The paper uses 5000 samples/second
    /// (=> ~30 samples per 6 ms window). PEBS hardware counts qualifying
    /// events and arms a record every Nth one; the sampler adapts N to
    /// the observed event rate so the wall-clock rate matches this period
    /// while remaining unbiased across qualifying operations.
    Tick mean_period = us(200);
    /// Load-latency qualification threshold: only loads at least this slow
    /// are eligible. ANVIL sets it to the LLC miss latency so only loads
    /// served by DRAM qualify.
    Tick load_latency_threshold = 0;
    bool sample_loads = true;
    bool sample_stores = false;
};

/** The PMU. One per simulated core. */
class Pmu : public mem::AccessListener
{
  public:
    /**
     * Constructs and subscribes to @p mem's access stream as its direct
     * access listener (no per-access std::function indirection).
     */
    explicit Pmu(mem::MemorySystem &mem, std::uint64_t seed = 0x9EB5ULL);
    ~Pmu() override;

    Pmu(const Pmu &) = delete;
    Pmu &operator=(const Pmu &) = delete;

    /** Access to a counter by event. */
    HwCounter &counter(Event event);
    const HwCounter &counter(Event event) const;

    /**
     * Per-process LLC-miss attribution — the multiplexed counter view a
     * system-wide daemon uses to rank tenants. Hardware time-multiplexes
     * one counter across contexts; the model keeps the per-pid totals the
     * multiplexing estimates. Returns 0 for a pid never observed.
     */
    std::uint64_t llc_misses(Pid pid) const;

    /** Per-pid LLC-miss totals, indexed by pid (short pids unobserved). */
    const std::vector<std::uint64_t> &
    llc_misses_by_pid() const
    {
        return pid_llc_misses_;
    }

    /** Enables PEBS sampling with @p config (replaces prior config). */
    void enable_sampling(const SampleConfig &config);

    /** Disables sampling; pending records remain until drained. */
    void disable_sampling();

    bool sampling_enabled() const { return sampling_enabled_; }

    /**
     * Takes all accumulated PEBS records into @p out (cleared first) by
     * swapping buffers — the steady-state path allocates nothing once both
     * vectors have grown to the high-water mark.
     */
    void drain_samples(std::vector<PebsRecord> &out);

    /** Drops all accumulated records, keeping the buffer's capacity. */
    void discard_samples() { records_.clear(); }

    /** Number of records accumulated (without draining). */
    std::size_t pending_samples() const { return records_.size(); }

    /** mem::AccessListener: called by the memory system on every access. */
    void on_access(const mem::AccessInfo &info) override;

  private:
    void schedule_next_sample(Tick now);

    /** Extends the per-pid LLC-miss totals to cover @p pid. */
    ANVIL_COLD void grow_pid_counts(Pid pid);

    /** Appends the PEBS record of @p info and arms the next sample. */
    ANVIL_COLD void record_sample(const mem::AccessInfo &info);

    mem::MemorySystem &mem_;
    Rng rng_;
    std::array<HwCounter, kNumEvents> counters_;
    std::vector<std::uint64_t> pid_llc_misses_;  ///< grown on first miss
    SampleConfig sample_config_;
    bool sampling_enabled_ = false;
    Tick sampling_started_ = 0;       ///< when sampling was (re)enabled
    std::uint64_t qualifying_events_ = 0;  ///< since sampling enabled
    std::uint64_t next_sample_at_ = 0;     ///< event count of next record
    std::vector<PebsRecord> records_;
};

}  // namespace anvil::pmu

#endif  // ANVIL_PMU_PMU_HH
