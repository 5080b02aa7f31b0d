/**
 * @file
 * A fixed sequence of cache operations run as one unit, with a memo of
 * the whole sequence's effect.
 *
 * A hammer iteration is such a sequence: the CLFLUSH-free pattern of
 * Figure 1b is 24 loads of 13 lines that all map to one L1 set, one L2
 * set and one LLC slice-set. Its effect on the hierarchy is a pure
 * function of those few set records, and under a deterministic
 * replacement policy the records soon revisit an earlier state (every
 * 12 iterations for the Bit-PLRU pattern). The program therefore runs
 * op by op only the first time it meets a starting state, stores the
 * transition, and afterwards replays it: the records' bytes, each op's
 * outcome and each cache's counter deltas are copied in place of 24
 * lookups and fills.
 */
#ifndef ANVIL_CACHE_ACCESS_PROGRAM_HH
#define ANVIL_CACHE_ACCESS_PROGRAM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/types.hh"

namespace anvil::cache {

/**
 * A fixed list of loads, stores and CLFLUSHes, each of one line.
 *
 * execute() is exactly equivalent to calling CacheHierarchy::access()
 * and clflush() for the ops in order: same records, same counters, same
 * per-op outcomes. The memo key is the bytes of every set record the ops
 * can touch (the L1 set, L2 set and LLC slice-set of each line) before
 * the program runs; a transition is stored per distinct key. The memo is
 * bypassed, and every run goes op by op, when
 *  - any level uses ReplPolicy::kRandom: a replay would skip its RNG
 *    draws; or
 *  - an L1 or L2 has more sets than an LLC slice: an LLC eviction's
 *    back-invalidation could then reach a set outside the key.
 * It is rebuilt from empty whenever the ops' physical addresses change
 * or the program runs on another hierarchy. The hierarchy is remembered
 * by address, so a program must not outlive the one it last ran on
 * (a hammer runs its programs only on the machine it was built for).
 */
class AccessProgram
{
  public:
    /** One op: a load/store of, or a CLFLUSH of, the line at @c addr. */
    struct Op {
        Addr addr;  ///< as the caller names it (a VA for MemorySystem)
        AccessType type = AccessType::kLoad;
        bool clflush = false;
    };

    /// Transitions remembered per program, replaced round-robin once
    /// full. At least the LLC associativity, the length of the Bit-PLRU
    /// hammer cycle; 32 was measured to hold every steady state.
    static constexpr std::size_t kMemoCapacity = 32;

    explicit AccessProgram(std::vector<Op> ops);

    const std::vector<Op> &ops() const { return ops_; }

    /**
     * Runs every op on @p h at the physical address @p translate returns
     * for it. @p translate is called once per op, in program order, before
     * the hierarchy is touched; it may throw, leaving @p h untouched.
     * Afterwards pa(i) and source(i) describe op i.
     */
    template <typename Translate>
    void
    execute(CacheHierarchy &h, Translate &&translate)
    {
        for (std::size_t i = 0; i < ops_.size(); ++i) {
            const Addr pa = translate(ops_[i]);
            if (pa != pas_[i]) {
                bound_ = nullptr;  // records compiled for other lines
                pas_[i] = pa;
            }
        }
        if (bound_ != &h)
            bind(h);
        run(h);
    }

    /** Physical address op @p i ran at in the last execute(). */
    Addr pa(std::size_t i) const { return pas_[i]; }

    /** Where op @p i was serviced from (kL1 for a CLFLUSH op). */
    DataSource source(std::size_t i) const { return sources_[i]; }

    /** Runs served from the memo, and runs that went op by op. */
    std::uint64_t memo_hits() const { return memo_hits_; }
    std::uint64_t memo_misses() const { return memo_misses_; }

  private:
    /** One set record the ops can touch, at its offset in a memo key. */
    struct Record {
        std::uint8_t *bytes;
        std::uint32_t size;
        std::uint32_t key_offset;
    };

    static constexpr std::uint32_t kNone = UINT32_MAX;

    /** Compiles the records and caches pas_ touch; empties the memo. */
    void bind(CacheHierarchy &h);

    /** Runs the ops once, through the memo when it is on. */
    void run(CacheHierarchy &h);

    /** Runs the ops one by one through @p h, filling sources_. */
    void step(CacheHierarchy &h);

    /** Memo entry whose key equals key_, or kNone. */
    std::uint32_t find() const;

    /** Runs the ops one by one and stores the transition. */
    std::uint32_t record(CacheHierarchy &h);

    /** Writes entry @p e's outcome to the records, counters, sources_. */
    void replay(std::uint32_t e);

    std::uint8_t *
    before_of(std::uint32_t e)
    {
        return memo_.data() + e * entry_bytes_;
    }
    const std::uint8_t *
    before_of(std::uint32_t e) const
    {
        return memo_.data() + e * entry_bytes_;
    }
    std::uint8_t *
    after_of(std::uint32_t e)
    {
        return before_of(e) + key_bytes_;
    }
    std::uint8_t *
    sources_of(std::uint32_t e)
    {
        return after_of(e) + key_bytes_;
    }
    CacheStats *
    deltas_of(std::uint32_t e)
    {
        return memo_deltas_.data() + e * caches_.size();
    }

    std::vector<Op> ops_;
    std::vector<Addr> pas_;
    std::vector<DataSource> sources_;
    static_assert(sizeof(DataSource) == 1,
                  "a memo entry holds one byte per op");

    // What bind() compiled from pas_ for bound_.
    const CacheHierarchy *bound_ = nullptr;
    bool memoizable_ = false;
    std::vector<Record> records_;
    std::vector<Cache *> caches_;  ///< distinct caches of records_
    std::size_t key_bytes_ = 0;    ///< sum of the records' sizes
    std::size_t entry_bytes_ = 0;  ///< before + after keys + sources

    // The memo: entry e is memo_[e * entry_bytes_ ...] (key before the
    // run, key after it, one DataSource per op) and caches_.size()
    // counter deltas at memo_deltas_[e * caches_.size()].
    std::vector<std::uint8_t> memo_;
    std::vector<CacheStats> memo_deltas_;
    /// Entry seen right after entry e last time, tried first.
    std::vector<std::uint32_t> successor_;
    std::vector<std::uint8_t> key_;  ///< the records' current bytes
    std::uint32_t entries_ = 0;
    std::uint32_t next_victim_ = 0;
    std::uint32_t last_ = kNone;
    std::uint64_t memo_hits_ = 0;
    std::uint64_t memo_misses_ = 0;
};

}  // namespace anvil::cache

#endif  // ANVIL_CACHE_ACCESS_PROGRAM_HH
