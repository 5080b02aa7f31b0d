/**
 * @file
 * The full memory system: per-process virtual memory in front of the cache
 * hierarchy in front of DRAM, all advancing one shared simulated clock.
 *
 * This is the single point through which workloads and attacks touch
 * memory; it owns the core's PMU and feeds it every completed access,
 * exactly as hardware counters observe the memory pipeline.
 */
#ifndef ANVIL_MEM_MEMORY_SYSTEM_HH
#define ANVIL_MEM_MEMORY_SYSTEM_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/access_program.hh"
#include "cache/hierarchy.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "dram/dram_system.hh"
#include "mem/access_info.hh"
#include "mem/clock.hh"
#include "mem/virtual_memory.hh"
#include "pmu/pmu.hh"

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

    /**
     * Runs @p program's ops in @p pid as the same sequence of access()
     * and clflush() calls would: identical cache, DRAM, clock, PMU and
     * observer effects, in the same order.
     *
     * It translates every op first, in program order (so translation
     * counts match), takes every op's cache outcome from the hierarchy in
     * one AccessProgram::execute(), and then runs each op's tail: for an
     * access the DRAM access on a miss at the current clock, the elapse
     * with its alarm, the AccessInfo, note_access(), the PMU and the
     * observers; for a CLFLUSH the elapse of clflush_cycles.
     *
     * Why this is exact: nothing that runs inside a tail reads or writes
     * the cache hierarchy. DRAM and its mitigation hooks, ANVIL's alarm
     * and PMI handlers (which only translate(), refresh_row_phys() and
     * advance_cycles()), the PMU and the watchdog and telemetry
     * observers all act on the clock, DRAM and their own state, so the
     * hierarchy may run the whole program ahead of them. An exception
     * thrown from a tail (a watchdog TimeoutError) abandons the trial, so
     * a hierarchy that already ran ahead is never read. An unmapped op
     * throws std::out_of_range before anything runs.
     *
     * Translation once per mapping: when one region of @p pid holds every
     * op, the program keeps that note (AccessProgram::translation()).
     * While the space's tlb_flushes() is unchanged (no mapping changed)
     * and its memo still names that region, translating again would hit
     * the memo on every op and return the same addresses, so run() only
     * counts those hits and reruns the program at its kept addresses.
     */
    void run(Pid pid, cache::AccessProgram &program);

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

    /** Registers an observer of completed accesses, called after the PMU. */
    void add_observer(Observer observer);

    /** The core's PMU: it sees every access, before any observer. */
    pmu::Pmu &pmu() { return pmu_; }

    dram::DramSystem &dram() { return dram_; }
    const dram::DramSystem &dram() const { return dram_; }
    cache::CacheHierarchy &hierarchy() { return hierarchy_; }
    const cache::CacheHierarchy &hierarchy() const { return hierarchy_; }
    const SystemConfig &config() const { return config_; }
    const CoreClock &core() const { return config_.core; }

  private:
    /**
     * Everything an access does after its cache lookup returned
     * @p source: DRAM on a miss, elapse, AccessInfo, accounting and
     * notification.
     */
    AccessInfo complete(AddressSpace &space, Addr va, Addr pa,
                        AccessType type, DataSource source);

    SystemConfig config_;
    Clock clock_;
    FrameAllocator frames_;
    dram::DramSystem dram_;
    cache::CacheHierarchy hierarchy_;
    std::vector<std::unique_ptr<AddressSpace>> spaces_;
    std::vector<Observer> observers_;
    /// cycles_to_ticks of the on-chip latency by DataSource (the hierarchy
    /// reports one of three fixed config latencies), precomputed so the
    /// per-access path needs no floating-point conversion.
    std::array<Tick, 4> on_chip_ticks_{};
    Tick clflush_ticks_ = 0;  ///< cycles_to_ticks(clflush_cycles)
    pmu::Pmu pmu_;  ///< last: mid-class it slowed perfbench tracker_zoo 7.7%
};

}  // namespace anvil::mem

#endif  // ANVIL_MEM_MEMORY_SYSTEM_HH
