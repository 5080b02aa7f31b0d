/**
 * @file
 * Rowhammer attack kernels (paper Section 2).
 *
 * Three attacks are implemented, matching Table 1:
 *
 *  - single-sided with CLFLUSH: hammer one aggressor, using a far same-bank
 *    "closer" row to force the row buffer shut each iteration;
 *  - double-sided with CLFLUSH: hammer the two rows sandwiching a victim
 *    (Figure 1a);
 *  - double-sided WITHOUT CLFLUSH: evict the aggressors from the LLC every
 *    iteration purely by manipulating the Bit-PLRU replacement state with
 *    an eviction set (Figure 1b).
 *
 * CLFLUSH-free pattern note. The paper's Figure 1b drives each aggressor
 * to the LRU position with ~10 conflicting accesses and evicts it with one
 * additional miss per aggressor. Under Bit-PLRU the minimal steady-state
 * cycle per set is
 *
 *     [ M, T1..T11, M', T1..T11, ... ]
 *
 * on the 12-way LLC, where M and M' alternate in one way (both always
 * missing) and the 11 (in general ways - 1) touches re-set the other
 * ways' MRU bits, forcing the global MRU reset that exposes the M/M' way
 * as the victim. We additionally place BOTH
 * aggressors in the same LLC set (possible because the attacker controls
 * the column bits within each aggressor row), so each aggressor acts as
 * the other's evictor: every LLC miss of the pattern is an aggressor-row
 * activation. This reproduces the paper's measured per-activation cost
 * (~200 ns) and its claim of ~190 K hammers per 64 ms refresh interval.
 */
#ifndef ANVIL_ATTACK_HAMMER_HH
#define ANVIL_ATTACK_HAMMER_HH

#include <cstdint>
#include <vector>

#include "attack/memory_layout.hh"
#include "common/types.hh"
#include "dram/dram_system.hh"
#include "mem/memory_system.hh"

namespace anvil::attack {

/** Outcome of one hammering run. */
struct HammerResult {
    bool flipped = false;
    /// Accesses that reached the aggressor DRAM rows (Table 1's
    /// "Number of DRAM Row Accesses").
    std::uint64_t aggressor_accesses = 0;
    /// Simulated time from hammer start until the first flip (or until
    /// the deadline if none occurred).
    Tick duration = 0;
    std::uint64_t iterations = 0;
    std::vector<dram::FlipEvent> flips;
};

/**
 * Base class driving the iterate-until-flip loop shared by all attacks.
 */
class Hammer
{
  public:
    Hammer(mem::MemorySystem &mem, Pid pid);
    virtual ~Hammer() = default;

    /**
     * Hammers until the DRAM records a new bit flip or @p max_duration of
     * simulated time elapses.
     */
    HammerResult run(Tick max_duration);

    /**
     * Performs one iteration of the access pattern — for interleaving the
     * attack with other drivers (heavy-load experiments, Table 3).
     */
    void step() { iteration(); }

  protected:
    /** One iteration of the attack's access pattern. */
    virtual void iteration() = 0;

    /** Aggressor-row accesses performed per iteration. */
    virtual std::uint64_t aggressor_accesses_per_iteration() const = 0;

    mem::MemorySystem &mem_;
    Pid pid_;
};

/** Double-sided rowhammer using CLFLUSH (Figure 1a). */
class ClflushDoubleSided : public Hammer
{
  public:
    /**
     * @param type hammer with loads (default) or stores. Store-based
     *        hammering is why ANVIL samples stores through the Precise
     *        Store facility (Section 3.3) — a loads-only detector would
     *        be blind to it.
     */
    ClflushDoubleSided(mem::MemorySystem &mem, Pid pid,
                       const DoubleSidedTarget &target,
                       AccessType type = AccessType::kLoad);

  protected:
    void iteration() override;
    std::uint64_t aggressor_accesses_per_iteration() const override
    {
        return 2;
    }

  private:
    Addr a0_;
    Addr a1_;
    AccessType type_;
};

/** Single-sided rowhammer using CLFLUSH. */
class ClflushSingleSided : public Hammer
{
  public:
    ClflushSingleSided(mem::MemorySystem &mem, Pid pid,
                       const SingleSidedTarget &target);

  protected:
    void iteration() override;
    /// Only aggressor-row accesses count; the same-bank closer access is
    /// pattern overhead, consistent with Table 1's 400 K.
    std::uint64_t aggressor_accesses_per_iteration() const override
    {
        return 1;
    }

  private:
    Addr aggressor_;
    Addr closer_;
};

/** Double-sided rowhammer WITHOUT CLFLUSH (Figure 1b; Section 2.2). */
class ClflushFreeDoubleSided : public Hammer
{
  public:
    /**
     * Prepares the eviction machinery for @p target.
     *
     * @param layout the attacker's scanned memory layout, used to pick
     *        column offsets placing both aggressors in one LLC set and to
     *        build the conflict (touch) set.
     * @throw std::runtime_error if the target's aggressors cannot share
     *        an LLC slice (see find_target) or conflicts are scarce.
     */
    ClflushFreeDoubleSided(mem::MemorySystem &mem, Pid pid,
                           const DoubleSidedTarget &target,
                           const MemoryLayout &layout);

    /**
     * True if @p target admits the shared-set placement (the two
     * aggressor rows hash to the same LLC slice for equal column bits).
     */
    static bool slice_compatible(const mem::MemorySystem &mem, Pid pid,
                                 const DoubleSidedTarget &target);

    /** The conflict addresses in use (for tests). */
    const std::vector<Addr> &touch_set() const { return touches_; }

    Addr a0() const { return a0_; }
    Addr a1() const { return a1_; }

  protected:
    void iteration() override;
    std::uint64_t aggressor_accesses_per_iteration() const override
    {
        return 2;
    }

  private:
    Addr a0_;
    Addr a1_;
    std::vector<Addr> touches_;  ///< the ways - 1 MRU-refresh lines
};

/**
 * Half-double rowhammer (aggressor-at-distance-2).
 *
 * The hammered rows are v±2; the directly adjacent rows v±1 are touched
 * only once every `near_touch_interval` iterations. Those rare touches
 * keep the near rows' own charge restored (so THEY never flip and expose
 * the attack early) while staying far under any tracker's MAC — the
 * victim v accumulates pure second-neighbour disturbance that an
 * aggressor-centric tracker attributes to rows v±1 and v±3, never to v.
 * Requires a module with a nonzero second_neighbor_weight (next-gen
 * parts); on a strictly first-order module the pattern is harmless.
 */
class ClflushHalfDouble : public Hammer
{
  public:
    ClflushHalfDouble(mem::MemorySystem &mem, Pid pid,
                      const HalfDoubleTarget &target,
                      std::uint64_t near_touch_interval = 512);

  protected:
    void iteration() override;
    /// Only the far (distance-2) rows are hammered; the rare near-row
    /// touches are pattern overhead.
    std::uint64_t aggressor_accesses_per_iteration() const override
    {
        return 2;
    }

  private:
    Addr far_low_;
    Addr far_high_;
    Addr near_low_;
    Addr near_high_;
    std::uint64_t near_touch_interval_;
    std::uint64_t iterations_ = 0;
};

/**
 * Tracker-thrash adversary: a performance attack on the TRACKER, not on
 * DRAM. Round-robins CLFLUSH+load over a large set of distinct rows so
 * every access is a row activation of a different row — no row ever
 * approaches a hammering rate, so no bit can flip, but every activation
 * is a fresh candidate for the tracker's finite tables. Trackers whose
 * eviction path issues refreshes (or whose response is unbudgeted)
 * convert this benign-looking traffic into a refresh storm that slows
 * co-running workloads; resilient trackers bound the damage.
 */
class TrackerThrash : public Hammer
{
  public:
    /**
     * @param rows attacker VAs in distinct (bank, row) locations (see
     *        MemoryLayout::find_thrash_rows). Must be non-empty.
     */
    TrackerThrash(mem::MemorySystem &mem, Pid pid, std::vector<Addr> rows);

    std::size_t working_set_rows() const { return rows_.size(); }

  protected:
    void iteration() override;
    std::uint64_t aggressor_accesses_per_iteration() const override
    {
        return 1;
    }

  private:
    std::vector<Addr> rows_;
    std::size_t index_ = 0;
};

}  // namespace anvil::attack

#endif  // ANVIL_ATTACK_HAMMER_HH
