/**
 * @file
 * A single set-associative cache level (tag store only — the simulator
 * models placement/replacement behaviour and timing, not data contents).
 */
#ifndef ANVIL_CACHE_CACHE_HH
#define ANVIL_CACHE_CACHE_HH

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

#include "cache/flat_replacement.hh"
#include "common/types.hh"

namespace anvil::cache {

inline constexpr std::uint32_t kLineBytes = 64;
inline constexpr std::uint32_t kLineShift = 6;

/**
 * Physical addresses the tag store can hold: a tag is the 32-bit line
 * number `pa >> 6`, so every cached address must be below 2^38 (256 GiB).
 * `scenario::validate()` rejects DRAM larger than this.
 */
inline constexpr std::uint64_t kMaxPhysBytes = std::uint64_t{1}
                                               << (32 + kLineShift);

/** Way index Cache::find() returns when the line is not in the set. */
inline constexpr std::uint32_t kNoWay = 64;

/** Truncates an address to its cache-line base address. */
constexpr Addr
line_of(Addr pa)
{
    return pa & ~static_cast<Addr>(kLineBytes - 1);
}

/**
 * Bit w of the result is set iff `tags[w] == tag`, for w < @p lanes.
 * Portable reference for tag_match_mask(); @pre lanes is a multiple of 4
 * and at most 64.
 */
inline std::uint64_t
tag_match_mask_scalar(const std::uint32_t *tags, std::uint32_t lanes,
                      std::uint32_t tag)
{
    std::uint64_t m = 0;
    for (std::uint32_t w = 0; w < lanes; ++w)
        m |= static_cast<std::uint64_t>(tags[w] == tag) << w;
    return m;
}

#ifdef __SSE2__
/**
 * tag_match_mask_scalar() four lanes at a time: one compare and one
 * movemask per 16 bytes, no per-way exit. @pre @p tags is 16-byte aligned.
 */
inline std::uint64_t
tag_match_mask_sse2(const std::uint32_t *tags, std::uint32_t lanes,
                    std::uint32_t tag)
{
    const __m128i key = _mm_set1_epi32(static_cast<int>(tag));
    std::uint64_t m = 0;
    for (std::uint32_t g = 0; g < lanes; g += 4) {
        const __m128i t =
            _mm_load_si128(reinterpret_cast<const __m128i *>(tags + g));
        const int eq =
            _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(t, key)));
        m |= static_cast<std::uint64_t>(eq) << g;
    }
    return m;
}
#endif

/** The tag probe the cache uses: SSE2 where available, else scalar. */
inline std::uint64_t
tag_match_mask(const std::uint32_t *tags, std::uint32_t lanes,
               std::uint32_t tag)
{
#ifdef __SSE2__
    return tag_match_mask_sse2(tags, lanes, tag);
#else
    return tag_match_mask_scalar(tags, lanes, tag);
#endif
}

/**
 * Byte layout of one set record: the valid-way mask at offset 0, the
 * replacement engine's per-set state at offset 8, then the 32-bit line
 * tags at a 16-byte boundary, padded to a multiple of four lanes. The
 * record size is a power of two of at least 64 bytes, so records never
 * straddle host cache lines and a set's record sits at its line offset
 * shifted left: a 12-way Bit-PLRU set (8 + 8 + 48 B) and an 8-way
 * Tree-PLRU set (8 + 8 + 32 B, padded) each fill exactly one line.
 */
struct SetLayout {
    static constexpr std::uint32_t kValidOffset = 0;
    static constexpr std::uint32_t kStateOffset = 8;

    std::uint32_t lanes;       ///< tag slots: ways rounded up to 4
    std::uint32_t tag_offset;  ///< byte offset of the tags (16-aligned)
    std::uint32_t bytes;       ///< record size: 2^k, at least 64

    SetLayout(std::uint32_t ways, std::uint32_t state_bytes)
        : lanes((ways + 3) & ~3u),
          tag_offset((kStateOffset + ((state_bytes + 7) & ~7u) + 15) & ~15u),
          bytes(std::bit_ceil(std::max(tag_offset + 4 * lanes, 64u)))
    {
    }
};

/** Per-cache hit/miss/eviction counters. */
struct CacheStats {
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;

    CacheStats &
    operator+=(const CacheStats &o)
    {
        accesses += o.accesses;
        hits += o.hits;
        misses += o.misses;
        fills += o.fills;
        evictions += o.evictions;
        invalidations += o.invalidations;
        return *this;
    }

    /** Counts accrued since @p earlier, a past copy of these counters. */
    CacheStats
    operator-(const CacheStats &earlier) const
    {
        return {accesses - earlier.accesses,   hits - earlier.hits,
                misses - earlier.misses,       fills - earlier.fills,
                evictions - earlier.evictions,
                invalidations - earlier.invalidations};
    }
};

/**
 * Tag store of one cache (or one LLC slice).
 *
 * Lookup and fill are split so a hierarchy can implement inclusive /
 * exclusive policies: access() probes (and updates replacement state on a
 * hit); fill() installs a line, returning any line evicted to make room.
 *
 * Each set is one SetLayout record in a single 64-byte-aligned array, so
 * a probe, its replacement update and a fill touch one host cache line.
 */
class Cache
{
  public:
    /**
     * @param name        for stats / debugging ("L1", "LLC.slice0", ...)
     * @param sets        number of sets (power of two)
     * @param ways        associativity, 1..64
     * @param policy      replacement policy for every set
     * @param rng         used by the random policy (may be nullptr)
     *
     * Tags are 32-bit line numbers: every address passed to the cache
     * must be below kMaxPhysBytes (asserted on each access).
     */
    Cache(std::string name, std::uint32_t sets, std::uint32_t ways,
          ReplPolicy policy, Rng *rng);

    /**
     * Probes for the line containing @p pa; updates replacement state and
     * counters on a hit.
     * @return true on hit.
     */
    bool
    access(Addr pa)
    {
        std::uint8_t *rec = record_of(pa);
        ++stats_.accesses;
        const std::uint32_t way = find(rec, tag_of(pa));
        if (way != kNoWay) {
            ++stats_.hits;
            repl_.on_access(state_of(rec), way);
            return true;
        }
        ++stats_.misses;
        return false;
    }

    /** True if the line containing @p pa is present (no state update). */
    bool
    contains(Addr pa) const
    {
        return find(record_of(pa), tag_of(pa)) != kNoWay;
    }

    /**
     * Installs the line containing @p pa.
     * @return the base address of the line evicted to make room, or
     *         kInvalidAddr if a free way took it. (A plain address, not
     *         std::optional: see find().)
     * @pre the line is not already present.
     */
    Addr fill(Addr pa);

    /**
     * Removes the line containing @p pa if present.
     * @return true if a line was invalidated.
     */
    bool invalidate(Addr pa);

    /** Set index the line containing @p pa maps to. */
    std::uint32_t
    set_index(Addr pa) const
    {
        return static_cast<std::uint32_t>((pa >> kLineShift) & (sets_ - 1));
    }

    /** Lines currently valid in @p set (for tests/telemetry). */
    std::vector<Addr> lines_in_set(std::uint32_t set) const;

    /** Bytes of one set record (for tests/telemetry). */
    std::uint32_t record_bytes() const { return layout_.bytes; }

    /** Start of @p set's record (for tests/telemetry). */
    const void *record_address(std::uint32_t set) const
    {
        return record(set);
    }

    const CacheStats &stats() const { return stats_; }

    const std::string &name() const { return name_; }
    std::uint32_t sets() const { return sets_; }
    std::uint32_t ways() const { return ways_; }
    std::uint64_t size_bytes() const
    {
        return static_cast<std::uint64_t>(sets_) * ways_ * kLineBytes;
    }

  private:
    /// Replays memoized transitions straight into set records and stats.
    friend class AccessProgram;

    /** One host cache line of record storage. */
    struct alignas(64) HostLine {
        unsigned char bytes[64];
    };

    static std::uint32_t
    tag_of(Addr pa)
    {
        assert(pa < kMaxPhysBytes && "address beyond the 32-bit tag range");
        return static_cast<std::uint32_t>(pa >> kLineShift);
    }

    /** Byte offset of @p pa's set record: its set bits, shifted. */
    std::size_t
    record_offset(Addr pa) const
    {
        return static_cast<std::size_t>(pa & set_bits_) << record_shift_;
    }

    std::uint8_t *
    record_of(Addr pa)
    {
        return reinterpret_cast<std::uint8_t *>(lines_.data()) +
               record_offset(pa);
    }

    const std::uint8_t *
    record_of(Addr pa) const
    {
        return reinterpret_cast<const std::uint8_t *>(lines_.data()) +
               record_offset(pa);
    }

    const std::uint8_t *
    record(std::uint32_t set) const
    {
        return record_of(static_cast<Addr>(set) << kLineShift);
    }

    static std::uint64_t &
    valid_of(std::uint8_t *rec)
    {
        return *reinterpret_cast<std::uint64_t *>(rec +
                                                  SetLayout::kValidOffset);
    }

    static std::uint64_t
    valid_of(const std::uint8_t *rec)
    {
        return *reinterpret_cast<const std::uint64_t *>(
            rec + SetLayout::kValidOffset);
    }

    static SetState
    state_of(std::uint8_t *rec)
    {
        return rec + SetLayout::kStateOffset;
    }

    std::uint32_t *
    tags_of(std::uint8_t *rec) const
    {
        return reinterpret_cast<std::uint32_t *>(rec + layout_.tag_offset);
    }

    const std::uint32_t *
    tags_of(const std::uint8_t *rec) const
    {
        return reinterpret_cast<const std::uint32_t *>(rec +
                                                       layout_.tag_offset);
    }

    /**
     * The way of @p rec holding @p tag, or kNoWay. Every lane is compared
     * and the result masked by the valid ways, so there is no per-way
     * exit; a returned index (not std::optional, whose stack-assembled
     * value costs a store-forwarding stall per probe) stays in a register.
     */
    std::uint32_t
    find(const std::uint8_t *rec, std::uint32_t tag) const
    {
        const std::uint64_t hit =
            tag_match_mask(tags_of(rec), layout_.lanes, tag) & valid_of(rec);
        // A line sits in at most one way; countr_zero(0) == 64 == kNoWay.
        return static_cast<std::uint32_t>(std::countr_zero(hit));
    }

    std::string name_;
    std::uint32_t sets_;
    std::uint32_t ways_;
    std::uint64_t full_mask_;  ///< all @c ways_ low bits set
    ReplacementEngine repl_;
    SetLayout layout_;
    Addr set_bits_;               ///< address bits of the set index
    std::uint32_t record_shift_;  ///< log2(layout_.bytes / 64)
    /// The set records, sets_ * layout_.bytes bytes. Padding lanes and
    /// invalid ways hold stale tags; the valid mask filters them out.
    std::vector<HostLine> lines_;
    CacheStats stats_;
};

}  // namespace anvil::cache

#endif  // ANVIL_CACHE_CACHE_HH
