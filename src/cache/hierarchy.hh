/**
 * @file
 * Three-level cache hierarchy modelled on the paper's evaluation platform
 * (Intel i5-2540M, Sandy Bridge): private L1/L2 and a shared, inclusive,
 * physically indexed, sliced last-level cache with 12 ways.
 *
 * "On our Intel Sandy Bridge machine, bits 6 to 16 of the physical
 * addresses are used to map to last-level cache sets. Furthermore, the
 * last-level cache is organized into slices, with one slice per processor
 * core." (Section 2.2). With 2 slices of 2048 sets each, the per-slice set
 * index is bits 6..16 and the slice is selected by a hash of the upper
 * address bits.
 */
#ifndef ANVIL_CACHE_HIERARCHY_HH
#define ANVIL_CACHE_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "common/types.hh"

namespace anvil::cache {

/// Slice counts the slice hash supports: one parity mask per index bit.
inline constexpr std::uint32_t kMaxLlcSlices = 8;

/** Configuration of the full hierarchy. */
struct HierarchyConfig {
    // L1D: 32 KB, 8-way.
    std::uint32_t l1_sets = 64;
    std::uint32_t l1_ways = 8;
    Cycles l1_latency = 4;
    ReplPolicy l1_policy = ReplPolicy::kTreePlru;

    // L2: 256 KB, 8-way.
    std::uint32_t l2_sets = 512;
    std::uint32_t l2_ways = 8;
    Cycles l2_latency = 12;
    ReplPolicy l2_policy = ReplPolicy::kTreePlru;

    // LLC: 3 MB total = 2 slices x 2048 sets x 12 ways x 64 B.
    std::uint32_t llc_slices = 2;
    std::uint32_t llc_sets_per_slice = 2048;
    std::uint32_t llc_ways = 12;
    /// "Access to the last-level cache on Sandy Bridge takes 26 to 31
    /// cycles" — the paper's cost model uses 29.
    Cycles llc_latency = 29;
    ReplPolicy llc_policy = ReplPolicy::kBitPlru;

    std::uint64_t rng_seed = 0xCACE5EEDULL;

    std::uint64_t
    llc_size_bytes() const
    {
        return static_cast<std::uint64_t>(llc_slices) * llc_sets_per_slice *
               llc_ways * kLineBytes;
    }
};

/**
 * The hierarchy. Timing is expressed in core cycles up to and including the
 * LLC lookup; a miss reports DataSource::kDram and the memory system charges
 * the DRAM latency in its place (the core overlaps the two).
 */
class CacheHierarchy
{
  public:
    /** Outcome of a hierarchy lookup (fills already performed). */
    struct Result {
        DataSource source = DataSource::kL1;
        Cycles latency = 0;  ///< on-chip portion only
        bool llc_miss = false;
    };

    explicit CacheHierarchy(const HierarchyConfig &config);

    /** Performs one load/store, handling all fills and inclusions. */
    Result access(Addr pa, AccessType type);

    /**
     * CLFLUSH: evicts the line containing @p pa from every level.
     * @return number of levels the line was found in.
     */
    int clflush(Addr pa);

    /** True if the line is present at any level (for tests). */
    bool present_anywhere(Addr pa) const;

    /** LLC slice index the address maps to. */
    std::uint32_t llc_slice(Addr pa) const;

    /** Set index within its LLC slice. */
    std::uint32_t llc_set(Addr pa) const;

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    const Cache &llc(std::uint32_t slice) const { return llc_[slice]; }
    const HierarchyConfig &config() const { return config_; }

    /** Aggregate LLC stats across slices. */
    CacheStats llc_stats() const;

  private:
    /// Compiles the set records of its lines from the levels below.
    friend class AccessProgram;

    void install_llc(Addr pa, Cache &slice);

    HierarchyConfig config_;
    Rng rng_;
    Cache l1_;
    Cache l2_;
    std::vector<Cache> llc_;
};

}  // namespace anvil::cache

#endif  // ANVIL_CACHE_HIERARCHY_HH
