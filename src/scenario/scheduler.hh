/**
 * @file
 * Deterministic multi-tenant scheduler: time-slices N tenant processes
 * (attackers and workloads) round-robin over the one shared machine,
 * replacing the ad-hoc interleave loops the RunSpec run modes used.
 *
 * Quanta are measured in completed simulated accesses — never wall
 * clock, thread identity, or iteration counts that drift with host
 * speed — so a schedule is a pure function of the tenant list and the
 * trial seed, and parallel sweeps stay byte-identical to serial ones.
 * With every quantum at 1 the scheduler steps the tenants one at a time
 * in turn — the one-step-per-turn interleave that every committed
 * single-tenant sweep JSON was produced with.
 */
#ifndef ANVIL_SCENARIO_SCHEDULER_HH
#define ANVIL_SCENARIO_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "common/units.hh"
#include "mem/memory_system.hh"
#include "scenario/spec.hh"

namespace anvil::scenario {

/**
 * The attribution label of each of @p spec's tenants, parallel to
 * `spec.tenants`. An empty name is derived from the payload (the
 * workload's profile name, or "attacker"); colliding labels get "#2",
 * "#3", ... suffixes in declaration order.
 */
std::vector<std::string> tenant_labels(const ScenarioSpec &spec);

/** One runnable tenant handed to the scheduler. */
struct ScheduledTenant {
    std::string name;
    /// Address space charged for the tenant's accesses; kInvalidPid
    /// disables access accounting (each step then costs one unit).
    Pid pid = kInvalidPid;
    /// Completed accesses per turn before the next tenant runs (>= 1).
    std::uint64_t quantum_accesses = 1;
    /// One atomic step of the tenant (one hammer iteration, one workload
    /// operation). Must advance the simulated clock and/or complete at
    /// least the bookkeeping of one unit of work.
    std::function<void()> step;
};

/** Per-tenant scheduling telemetry. */
struct TenantRunStats {
    std::uint64_t steps = 0;     ///< step() invocations
    std::uint64_t quanta = 0;    ///< turns in which the tenant ran
    std::uint64_t accesses = 0;  ///< completed accesses attributed
};

/**
 * Round-robin quantum scheduler over one shared MemorySystem.
 *
 * Determinism contract: given the same tenant list (order, quanta) and
 * the same per-tenant step behaviour, the interleaving of steps — and
 * therefore every downstream observable (clock, DRAM state, detector
 * windows) — is identical run to run.
 */
class TenantScheduler
{
  public:
    explicit TenantScheduler(mem::MemorySystem &mem) : mem_(mem) {}

    /** Appends a tenant; schedule order is insertion order. */
    void add(ScheduledTenant tenant);

    std::size_t size() const { return tenants_.size(); }

    /**
     * Runs the round-robin schedule until the clock reaches @p deadline.
     * The deadline is checked before every step, so a tenant never
     * starts a step at or past the deadline and the clock overshoots it
     * by at most one step. With no tenant the clock jumps to the
     * deadline.
     */
    void run_until(Tick deadline);

    /**
     * Runs whole round-robin rounds while @p more returns true,
     * checking the predicate once per round — the legacy
     * kInterleaveUntilOps contract (every tenant gets its quantum each
     * round, even after the lead workload crosses its quota mid-round).
     * @pre at least one tenant's step can eventually satisfy !more().
     */
    void run_rounds(const std::function<bool()> &more);

    /** Telemetry, indexed like the insertion order. */
    const std::vector<TenantRunStats> &stats() const { return stats_; }

  private:
    /** Runs one quantum of tenant @p index, stopping early at @p deadline. */
    void run_quantum(std::size_t index, Tick deadline);

    mem::MemorySystem &mem_;
    std::vector<ScheduledTenant> tenants_;
    std::vector<TenantRunStats> stats_;
};

}  // namespace anvil::scenario

#endif  // ANVIL_SCENARIO_SCHEDULER_HH
