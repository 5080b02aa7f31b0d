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
 * The PMU is part of the core: each mem::MemorySystem owns one
 * (MemorySystem::pmu()) and feeds it every completed access, as the
 * hardware observes the memory pipeline. The detector reads counters and
 * drains sample buffers, never the memory system. A free-standing Pmu
 * (perfbench's replay) sees only what is fed to its on_access().
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
#include "common/units.hh"
#include "mem/access_info.hh"

namespace anvil::mem {
class MemorySystem;
}  // namespace anvil::mem

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

/** The PMU. One per simulated core, a member of its MemorySystem. */
class Pmu
{
  public:
    /**
     * A PMU reading @p mem's clock (sampling windows start at its now()).
     * It counts only the accesses passed to on_access().
     */
    explicit Pmu(const mem::MemorySystem &mem);

    Pmu(const Pmu &) = delete;
    Pmu &operator=(const Pmu &) = delete;

    /** Access to a counter by event. */
    HwCounter &counter(Event event);
    const HwCounter &counter(Event event) const;

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

    /** Called by the memory system after every completed access. */
    void on_access(const mem::AccessInfo &info);

  private:
    void schedule_next_sample(Tick now);

    /** Appends the PEBS record of @p info and arms the next sample. */
    ANVIL_COLD void record_sample(const mem::AccessInfo &info);

    const mem::MemorySystem &mem_;
    Rng rng_{0x9EB5ULL};  ///< the sampling jitter; no run varies its seed
    std::array<HwCounter, kNumEvents> counters_;
    SampleConfig sample_config_;
    bool sampling_enabled_ = false;
    Tick sampling_started_ = 0;       ///< when sampling was (re)enabled
    std::uint64_t qualifying_events_ = 0;  ///< since sampling enabled
    std::uint64_t next_sample_at_ = 0;     ///< event count of next record
    std::vector<PebsRecord> records_;
};

}  // namespace anvil::pmu

#endif  // ANVIL_PMU_PMU_HH
