/**
 * @file
 * Flat replacement engines: the per-access hot-path implementation of the
 * six replacement policies.
 *
 * The reference implementation (`SetPolicy` in the tests'
 * reference/replacement.hh) allocates one heap object per cache set and
 * dispatches every touch through a vtable — a pointer chase plus an
 * indirect call per access per level.
 * Each engine here is instead stateless per set: a set's replacement
 * state (one machine word, a byte per way, or nothing) sits in that
 * set's record next to its tags (cache.hh), and the engine is dispatched
 * once per cache through a `std::variant`. Victim/eviction
 * sequences are bit-exact with the reference policies — enforced by the
 * golden-trace equivalence tests — and `kRandom` draws from the shared
 * Rng in exactly the same call order.
 */
#ifndef ANVIL_CACHE_FLAT_REPLACEMENT_HH
#define ANVIL_CACHE_FLAT_REPLACEMENT_HH

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <variant>

#include "common/bits.hh"
#include "common/rng.hh"

namespace anvil::cache {

/** Replacement policy selector. */
enum class ReplPolicy {
    kLru,      ///< true least-recently-used
    kBitPlru,  ///< MRU-bit pseudo-LRU (Sandy Bridge LLC, per the paper)
    kNru,      ///< not-recently-used
    kTreePlru, ///< binary-tree pseudo-LRU
    kSrrip,    ///< static re-reference interval prediction (2-bit)
    kRandom,   ///< uniform random victim
};

/** Name of a policy value. */
const char *to_string(ReplPolicy policy);

/**
 * Per-set replacement state lives inside the cache's set record
 * (cache.hh); every engine method takes a pointer to that set's state
 * bytes. The record keeps them 8-byte aligned, and each byte range is
 * only ever accessed as one type: a 64-bit word for the bitmask
 * policies, single bytes for LRU and SRRIP.
 */
using SetState = std::uint8_t *;

/** The 64-bit state word at @p s (Bit-PLRU, NRU, Tree-PLRU). */
inline std::uint64_t &
state_word(SetState s)
{
    return *reinterpret_cast<std::uint64_t *>(s);
}

/**
 * True LRU. Per set: a recency stack of way indices, one byte each,
 * position 0 = MRU, matching LruPolicy's vector layout exactly.
 */
class LruEngine
{
  public:
    explicit LruEngine(std::uint32_t ways) : ways_(ways)
    {
        assert(ways <= 255 && "way index must fit a byte");
    }

    std::uint32_t state_bytes() const { return ways_; }

    void
    init(SetState s) const
    {
        for (std::uint32_t w = 0; w < ways_; ++w)
            s[w] = static_cast<std::uint8_t>(w);
    }

    void on_access(SetState s, std::uint32_t way) { touch(s, way); }
    void on_fill(SetState s, std::uint32_t way) { touch(s, way); }

    void
    on_invalidate(SetState s, std::uint32_t way)
    {
        // Move to the LRU position so the way is reused first.
        const std::uint32_t pos = find(s, way);
        std::memmove(s + pos, s + pos + 1, ways_ - pos - 1);
        s[ways_ - 1] = static_cast<std::uint8_t>(way);
    }

    std::uint32_t victim(SetState s) { return s[ways_ - 1]; }

    /** victim() + on_fill() in one pass: the victim's stack position is
     * known to be the back, so the fill skips the find() scan. */
    std::uint32_t
    victim_and_fill(SetState s)
    {
        const std::uint8_t w = s[ways_ - 1];
        std::memmove(s + 1, s, ways_ - 1);
        s[0] = w;
        return w;
    }

  private:
    void
    touch(SetState s, std::uint32_t way)
    {
        const std::uint32_t pos = find(s, way);
        std::memmove(s + 1, s, pos);
        s[0] = static_cast<std::uint8_t>(way);
    }

    std::uint32_t
    find(const std::uint8_t *s, std::uint32_t way) const
    {
        for (std::uint32_t i = 0; i < ways_; ++i) {
            if (s[i] == way)
                return i;
        }
        assert(false && "way not in recency stack");
        return 0;
    }

    std::uint32_t ways_;
};

/**
 * Bit-PLRU (paper Section 2.2). Per set: one MRU bitmask word.
 */
class BitPlruEngine
{
  public:
    explicit BitPlruEngine(std::uint32_t ways)
        : ways_(ways), full_(low_mask(ways))
    {
        assert(ways <= 64 && "MRU bitmask is one 64-bit word");
    }

    std::uint32_t state_bytes() const { return 8; }
    void init(SetState s) const { state_word(s) = 0; }

    void on_access(SetState s, std::uint32_t way) { set_mru(s, way); }
    void on_fill(SetState s, std::uint32_t way) { set_mru(s, way); }

    void
    on_invalidate(SetState s, std::uint32_t way)
    {
        state_word(s) &= ~(1ULL << way);
    }

    std::uint32_t
    victim(SetState s)
    {
        // Lowest index whose MRU bit is clear; defensive 0 if none (the
        // reference's unreachable fallback).
        const auto w =
            static_cast<std::uint32_t>(std::countr_one(state_word(s)));
        return w < ways_ ? w : 0;
    }

    /** victim() + on_fill() on one load/store of the MRU word. */
    std::uint32_t
    victim_and_fill(SetState s)
    {
        const std::uint64_t m = state_word(s);
        auto w = static_cast<std::uint32_t>(std::countr_one(m));
        if (w >= ways_)
            w = 0;
        const std::uint64_t nm = m | (1ULL << w);
        state_word(s) = nm == full_ ? (1ULL << w) : nm;
        return w;
    }

  private:
    void
    set_mru(SetState s, std::uint32_t way)
    {
        const std::uint64_t m = state_word(s) | (1ULL << way);
        // When the last MRU bit is set, clear all the others.
        state_word(s) = m == full_ ? (1ULL << way) : m;
    }

    std::uint32_t ways_;
    std::uint64_t full_;
};

/**
 * NRU: reference bits cleared lazily at victim selection. Per set: one
 * reference bitmask word.
 */
class NruEngine
{
  public:
    explicit NruEngine(std::uint32_t ways) : ways_(ways)
    {
        assert(ways <= 64 && "reference bitmask is one 64-bit word");
    }

    std::uint32_t state_bytes() const { return 8; }
    void init(SetState s) const { state_word(s) = 0; }

    void
    on_access(SetState s, std::uint32_t way)
    {
        state_word(s) |= 1ULL << way;
    }

    void
    on_fill(SetState s, std::uint32_t way)
    {
        state_word(s) |= 1ULL << way;
    }

    void
    on_invalidate(SetState s, std::uint32_t way)
    {
        state_word(s) &= ~(1ULL << way);
    }

    std::uint32_t
    victim(SetState s)
    {
        const auto w =
            static_cast<std::uint32_t>(std::countr_one(state_word(s)));
        if (w < ways_)
            return w;
        // All referenced: clear every bit and take way 0, exactly like the
        // reference's second pass.
        state_word(s) = 0;
        return 0;
    }

    /** victim() + on_fill() without reloading the reference word. */
    std::uint32_t
    victim_and_fill(SetState s)
    {
        const std::uint64_t r = state_word(s);
        auto w = static_cast<std::uint32_t>(std::countr_one(r));
        if (w < ways_) {
            state_word(s) = r | (1ULL << w);
            return w;
        }
        state_word(s) = 1;  // cleared, then way 0 filled
        return 0;
    }

  private:
    std::uint32_t ways_;
};

/**
 * Binary-tree pseudo-LRU. Per set: the ways-1 tree bits in one word,
 * bit n = node n in the reference's array layout. @pre ways is 2^k.
 */
class TreePlruEngine
{
  public:
    explicit TreePlruEngine(std::uint32_t ways) : ways_(ways)
    {
        assert(is_pow2(ways) && "tree PLRU needs 2^k ways");
        assert(ways <= 64 && "tree bits fit one 64-bit word");
        // The path walked by touch() depends only on the way index, so the
        // node bits it sets and clears can be tabulated once per way; each
        // touch then collapses to two bitwise operations. Every node on
        // the path appears in exactly one of the two masks, so applying
        // them in either order matches the original walk.
        for (std::uint32_t w = 0; w < ways; ++w) {
            std::uint64_t set_mask = 0;
            std::uint64_t clear_mask = 0;
            std::uint32_t node = 0;
            std::uint32_t low = 0;
            std::uint32_t range = ways;
            while (range > 1) {
                range /= 2;
                if (w >= low + range) {
                    clear_mask |= std::uint64_t{1} << node;
                    low += range;
                    node = 2 * node + 2;
                } else {
                    set_mask |= std::uint64_t{1} << node;
                    node = 2 * node + 1;
                }
            }
            touch_set_[w] = set_mask;
            touch_clear_[w] = clear_mask;
        }
    }

    std::uint32_t state_bytes() const { return 8; }
    void init(SetState s) const { state_word(s) = 0; }

    void on_access(SetState s, std::uint32_t way) { touch(s, way); }
    void on_fill(SetState s, std::uint32_t way) { touch(s, way); }
    void on_invalidate(SetState, std::uint32_t) {}

    std::uint32_t victim(SetState s) const { return walk(state_word(s)); }

    /** victim() + on_fill(): the walk, then the chosen way's masks. */
    std::uint32_t
    victim_and_fill(SetState s)
    {
        const std::uint32_t way = walk(state_word(s));
        touch(s, way);
        return way;
    }

  private:
    /**
     * Follows the tree bits from the root to the pseudo-LRU leaf. Each
     * level is arithmetic on the node's bit (no data-dependent branch),
     * and the trip count depends only on the associativity.
     */
    std::uint32_t
    walk(std::uint64_t bits) const
    {
        std::uint32_t node = 0;
        std::uint32_t low = 0;
        for (std::uint32_t range = ways_ / 2; range > 0; range /= 2) {
            const auto go_right =
                static_cast<std::uint32_t>((bits >> node) & 1);
            low += go_right * range;
            node = 2 * node + 1 + go_right;
        }
        return low;
    }

    void
    touch(SetState s, std::uint32_t way)
    {
        // Flip each node on the path to point away from this way.
        state_word(s) =
            (state_word(s) | touch_set_[way]) & ~touch_clear_[way];
    }

    std::uint32_t ways_;
    std::array<std::uint64_t, 64> touch_set_{};
    std::array<std::uint64_t, 64> touch_clear_{};
};

/**
 * SRRIP with 2-bit RRPVs. Per set: one byte per way.
 */
class SrripEngine
{
  public:
    static constexpr std::uint8_t kMaxRrpv = 3;

    explicit SrripEngine(std::uint32_t ways) : ways_(ways) {}

    std::uint32_t state_bytes() const { return ways_; }
    void init(SetState s) const { std::memset(s, kMaxRrpv, ways_); }

    void on_access(SetState s, std::uint32_t way) { s[way] = 0; }
    void on_fill(SetState s, std::uint32_t way) { s[way] = kMaxRrpv - 1; }
    void on_invalidate(SetState s, std::uint32_t way) { s[way] = kMaxRrpv; }

    std::uint32_t
    victim(SetState s)
    {
        while (true) {
            for (std::uint32_t w = 0; w < ways_; ++w) {
                if (s[w] == kMaxRrpv)
                    return w;
            }
            for (std::uint32_t w = 0; w < ways_; ++w)
                ++s[w];
        }
    }

    std::uint32_t
    victim_and_fill(SetState s)
    {
        const std::uint32_t w = victim(s);
        on_fill(s, w);
        return w;
    }

  private:
    std::uint32_t ways_;
};

/** Uniform-random victim; draws from the shared Rng exactly like the
 * reference, preserving the global RNG call order. No per-set state. */
class RandomEngine
{
  public:
    RandomEngine(std::uint32_t ways, Rng *rng) : ways_(ways), rng_(rng)
    {
        assert(rng != nullptr && "random policy needs an Rng");
    }

    std::uint32_t state_bytes() const { return 0; }
    void init(SetState) const {}

    void on_access(SetState, std::uint32_t) {}
    void on_fill(SetState, std::uint32_t) {}
    void on_invalidate(SetState, std::uint32_t) {}

    std::uint32_t
    victim(SetState)
    {
        return static_cast<std::uint32_t>(rng_->next_below(ways_));
    }

    std::uint32_t
    victim_and_fill(SetState s)
    {
        return victim(s);  // on_fill is a no-op
    }

  private:
    std::uint32_t ways_;
    Rng *rng_;
};

/**
 * Policy-dispatching wrapper owning one flat engine for a whole cache.
 *
 * Dispatch is a branch on the policy tag — resolved identically on every
 * access of a given cache, so it predicts perfectly — instead of a
 * per-set vtable load. The engine holds only the geometry (and the Rng
 * for kRandom); each call names the set's state bytes in its record.
 */
class ReplacementEngine
{
  public:
    ReplacementEngine(ReplPolicy policy, std::uint32_t ways, Rng *rng)
        : policy_(policy), impl_(make(policy, ways, rng))
    {
    }

    /** Bytes of per-set state the policy keeps in each set record. */
    std::uint32_t
    state_bytes()
    {
        std::uint32_t n = 0;
        dispatch([&](auto &e) { n = e.state_bytes(); });
        return n;
    }

    /** Writes the policy's initial (empty-set) state to @p s. */
    void
    init(SetState s)
    {
        dispatch([&](auto &e) { e.init(s); });
    }

    void
    on_access(SetState s, std::uint32_t way)
    {
        dispatch([&](auto &e) { e.on_access(s, way); });
    }

    void
    on_fill(SetState s, std::uint32_t way)
    {
        dispatch([&](auto &e) { e.on_fill(s, way); });
    }

    void
    on_invalidate(SetState s, std::uint32_t way)
    {
        dispatch([&](auto &e) { e.on_invalidate(s, way); });
    }

    std::uint32_t
    victim(SetState s)
    {
        std::uint32_t v = 0;
        dispatch([&](auto &e) { v = e.victim(s); });
        return v;
    }

    /**
     * Equivalent to victim(s) followed by on_fill(s, victim), fused so
     * each engine touches the set's state once.
     */
    std::uint32_t
    victim_and_fill(SetState s)
    {
        std::uint32_t v = 0;
        dispatch([&](auto &e) { v = e.victim_and_fill(s); });
        return v;
    }

    ReplPolicy policy() const { return policy_; }

  private:
    using Variant = std::variant<LruEngine, BitPlruEngine, NruEngine,
                                 TreePlruEngine, SrripEngine, RandomEngine>;

    static Variant make(ReplPolicy policy, std::uint32_t ways, Rng *rng);

    /** Switch on the policy tag; avoids std::visit's dispatch table. */
    template <typename Fn>
    void
    dispatch(Fn &&fn)
    {
        switch (policy_) {
          case ReplPolicy::kLru:
            fn(*std::get_if<LruEngine>(&impl_));
            break;
          case ReplPolicy::kBitPlru:
            fn(*std::get_if<BitPlruEngine>(&impl_));
            break;
          case ReplPolicy::kNru:
            fn(*std::get_if<NruEngine>(&impl_));
            break;
          case ReplPolicy::kTreePlru:
            fn(*std::get_if<TreePlruEngine>(&impl_));
            break;
          case ReplPolicy::kSrrip:
            fn(*std::get_if<SrripEngine>(&impl_));
            break;
          case ReplPolicy::kRandom:
            fn(*std::get_if<RandomEngine>(&impl_));
            break;
        }
    }

    ReplPolicy policy_;
    Variant impl_;
};

}  // namespace anvil::cache

#endif  // ANVIL_CACHE_FLAT_REPLACEMENT_HH
