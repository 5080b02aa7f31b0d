/**
 * @file
 * The full memory system: per-process virtual memory in front of the cache
 * hierarchy in front of DRAM, all advancing one shared simulated clock.
 *
 * This is the single point through which workloads and attacks touch
 * memory; PMU facilities observe completed accesses through the observer
 * hook, exactly as hardware counters observe the memory pipeline.
 */
#ifndef ANVIL_MEM_MEMORY_SYSTEM_HH
#define ANVIL_MEM_MEMORY_SYSTEM_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "dram/dram_system.hh"
#include "mem/clock.hh"
#include "mem/virtual_memory.hh"

namespace anvil::mem {

/** Top-level configuration of the simulated machine. */
struct SystemConfig {
    dram::DramConfig dram;
    cache::HierarchyConfig cache;
    CoreClock core{2.6};  ///< i5-2540M nominal frequency
    /// Cost of one CLFLUSH instruction (mostly overlapped by the
    /// out-of-order core). Calibrated against MemorySystem::access's
    /// LLC-miss cost (the DRAM latency alone) so the CLFLUSH-based
    /// double-sided attack reproduces Table 1's ~15 ms time-to-first-flip:
    /// 110 K x 2 x (150 + 8) cycles = 13.4 ms, plus refresh stalls.
    Cycles clflush_cycles = 8;
    std::uint64_t vm_seed = 0xF4A3E5EEDULL;
};

/** Everything known about one completed memory access. */
struct AccessInfo {
    Pid pid = 0;
    Addr va = 0;
    Addr pa = 0;
    AccessType type = AccessType::kLoad;
    DataSource source = DataSource::kL1;
    Tick latency = 0;      ///< total, including DRAM if missed
    bool llc_miss = false;
    Tick complete_time = 0;
};

/**
 * Interface for the one component observing every access on the hot path:
 * the PMU, which the machine refuses to hold two of. A direct virtual call
 * through this interface replaces the generic std::function observer hop;
 * other observers (tests, perfbench telemetry) use add_observer().
 */
class AccessListener
{
  public:
    virtual ~AccessListener() = default;

    /** Called after every completed access. */
    virtual void on_access(const AccessInfo &info) = 0;
};

/**
 * The machine. Single memory controller, single simulated hardware thread
 * (the paper's workloads are single-threaded; concurrent load is modelled
 * by interleaving tenants — see scenario::TenantScheduler).
 */
class MemorySystem
{
  public:
    using Observer = std::function<void(const AccessInfo &)>;

    explicit MemorySystem(const SystemConfig &config);

    /** The simulated clock and its alarm. */
    Clock &clock() { return clock_; }
    Tick now() const { return clock_.now(); }

    /** Creates a new process address space. */
    AddressSpace &create_process();

    /** Looks up an existing process. @pre pid was returned earlier. */
    AddressSpace &process(Pid pid) { return *spaces_.at(pid); }
    const AddressSpace &process(Pid pid) const { return *spaces_.at(pid); }

    /** Number of process address spaces created (pids are [0, count)). */
    std::size_t process_count() const { return spaces_.size(); }

    /**
     * Performs one load or store: translates, walks the cache hierarchy,
     * touches DRAM on an LLC miss, advances the clock by the access
     * latency, rings a due alarm, and notifies observers. An LLC miss
     * costs the DRAM access alone: the out-of-order core hides the on-chip
     * lookup under it, as the paper's flat "DRAM access latency of 150
     * cycles" per miss does (Section 2.2).
     * @pre va is mapped in @p pid.
     */
    AccessInfo access(Pid pid, Addr va, AccessType type);

    /** Executes CLFLUSH of the line containing @p va. */
    void clflush(Pid pid, Addr va);

    /** Models non-memory compute: advances the clock by @p n core cycles. */
    void advance_cycles(Cycles n);

    /** Advances the clock by @p dt ticks. */
    void advance(Tick dt) { clock_.elapse(dt); }

    /**
     * Privileged uncached read of the DRAM row containing physical address
     * @p pa — ANVIL's selective-refresh primitive. Advances the clock by
     * the read latency.
     */
    void refresh_row_phys(Addr pa);

    /** Registers an observer of completed accesses (tests, telemetry). */
    void add_observer(Observer observer);

    /**
     * Makes @p listener THE direct access listener (the PMU; not owned: a
     * listener that dies first clears itself). Notified before any generic
     * observers.
     * @throws std::logic_error if one is already registered.
     */
    void
    set_access_listener(AccessListener &listener)
    {
        if (listener_ != nullptr)
            throw std::logic_error("MemorySystem::set_access_listener: the "
                                   "machine already has an access listener");
        listener_ = &listener;
    }

    /** Empties the listener slot if @p listener holds it. */
    void
    clear_access_listener(const AccessListener &listener)
    {
        if (listener_ == &listener)
            listener_ = nullptr;
    }

    dram::DramSystem &dram() { return dram_; }
    const dram::DramSystem &dram() const { return dram_; }
    cache::CacheHierarchy &hierarchy() { return hierarchy_; }
    const cache::CacheHierarchy &hierarchy() const { return hierarchy_; }
    const SystemConfig &config() const { return config_; }
    const CoreClock &core() const { return config_.core; }

  private:
    SystemConfig config_;
    Clock clock_;
    FrameAllocator frames_;
    dram::DramSystem dram_;
    cache::CacheHierarchy hierarchy_;
    std::vector<std::unique_ptr<AddressSpace>> spaces_;
    AccessListener *listener_ = nullptr;
    std::vector<Observer> observers_;
    /// cycles_to_ticks of the on-chip latency by DataSource (the hierarchy
    /// reports one of three fixed config latencies), precomputed so the
    /// per-access path needs no floating-point conversion.
    std::array<Tick, 4> on_chip_ticks_{};
    Tick clflush_ticks_ = 0;  ///< cycles_to_ticks(clflush_cycles)
};

}  // namespace anvil::mem

#endif  // ANVIL_MEM_MEMORY_SYSTEM_HH
