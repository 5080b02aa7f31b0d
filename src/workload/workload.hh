/**
 * @file
 * Synthetic benchmark driver.
 *
 * A Workload owns one simulated process and issues memory operations
 * according to its SpecProfile: a mixture of hot-region reuse, cold random
 * accesses, sequential streaming, and occasional cache-set-conflict
 * "thrash phases". Thrash phases model the pathological-but-benign
 * conflict-miss behaviour (e.g. blocked compression with power-of-two
 * strides) that stresses ANVIL's false-positive filtering: repeated DRAM
 * row accesses with high locality that are NOT an attack.
 */
#ifndef ANVIL_WORKLOAD_WORKLOAD_HH
#define ANVIL_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <vector>

#include "attack/memory_layout.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "mem/memory_system.hh"
#include "workload/profile.hh"

namespace anvil::workload {

/** One synthetic benchmark process. */
class Workload
{
  public:
    Workload(mem::MemorySystem &mem, const SpecProfile &profile);

    /** Issues one memory operation (plus its think time). */
    void step();

    /** Issues @p n operations. */
    void run_ops(std::uint64_t n);

    /** Steps until the simulated clock reaches now() + dt. */
    void run_for(Tick dt);

    /** Operations issued so far (the fixed-work unit for slowdowns). */
    std::uint64_t ops() const { return ops_; }

    Pid pid() const { return pid_; }
    const SpecProfile &profile() const { return profile_; }

    /** True while a conflict-thrash phase is active (for tests). */
    bool in_thrash_phase() const { return in_thrash_; }

  private:
    /** Intensity of one thrash phase. */
    enum class ThrashKind { kBurst, kStrong, kWeak };

    void maybe_toggle_thrash();
    void enter_thrash();
    void thrash_step();
    void normal_step();
    Addr random_line(Addr base, std::uint64_t bytes);
    void think(Cycles mean);
    void schedule_next_thrash();

    mem::MemorySystem &mem_;
    SpecProfile profile_;
    Rng rng_;
    Pid pid_;

    Addr arena_ = 0;
    Addr stream_pos_ = 0;
    attack::MemoryLayout layout_;
    std::vector<Addr> block_bases_;  ///< VA of each THP block in the arena

    // Thrash-phase state.
    bool in_thrash_ = false;
    Tick thrash_end_ = 0;
    Tick next_thrash_ = 0;
    std::vector<Addr> thrash_seq_;
    std::size_t thrash_idx_ = 0;
    Cycles thrash_think_ = 0;

    std::uint64_t ops_ = 0;
};

}  // namespace anvil::workload

#endif  // ANVIL_WORKLOAD_WORKLOAD_HH
