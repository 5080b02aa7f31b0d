/**
 * @file
 * Flat replacement engines: the per-access hot-path implementation of the
 * six replacement policies.
 *
 * The reference implementation (`SetPolicy` in replacement.hh) allocates
 * one heap object per cache set and dispatches every touch through a
 * vtable — a pointer chase plus an indirect call per access per level.
 * Each engine here instead keeps the state of *all* sets of a cache in a
 * single contiguous POD array (one machine word or a few bytes per set),
 * dispatched once per cache through a `std::variant`. Victim/eviction
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
#include <vector>

#include "cache/replacement.hh"
#include "common/bits.hh"
#include "common/rng.hh"

namespace anvil::cache {

/**
 * True LRU. Per set: a recency stack of way indices, position 0 = MRU,
 * matching LruPolicy's vector layout exactly.
 */
class LruEngine
{
  public:
    LruEngine(std::uint32_t sets, std::uint32_t ways)
        : ways_(ways), stack_(static_cast<std::size_t>(sets) * ways)
    {
        assert(ways <= 255 && "way index must fit a byte");
        for (std::uint32_t s = 0; s < sets; ++s) {
            for (std::uint32_t w = 0; w < ways; ++w)
                stack_[static_cast<std::size_t>(s) * ways + w] =
                    static_cast<std::uint8_t>(w);
        }
    }

    void on_access(std::uint32_t set, std::uint32_t way) { touch(set, way); }
    void on_fill(std::uint32_t set, std::uint32_t way) { touch(set, way); }

    void
    on_invalidate(std::uint32_t set, std::uint32_t way)
    {
        // Move to the LRU position so the way is reused first.
        std::uint8_t *s = &stack_[static_cast<std::size_t>(set) * ways_];
        const std::uint32_t pos = find(s, way);
        std::memmove(s + pos, s + pos + 1, ways_ - pos - 1);
        s[ways_ - 1] = static_cast<std::uint8_t>(way);
    }

    std::uint32_t
    victim(std::uint32_t set)
    {
        return stack_[static_cast<std::size_t>(set) * ways_ + ways_ - 1];
    }

    /** victim() + on_fill() in one pass: the victim's stack position is
     * known to be the back, so the fill skips the find() scan. */
    std::uint32_t
    victim_and_fill(std::uint32_t set)
    {
        std::uint8_t *s = &stack_[static_cast<std::size_t>(set) * ways_];
        const std::uint8_t w = s[ways_ - 1];
        std::memmove(s + 1, s, ways_ - 1);
        s[0] = w;
        return w;
    }

  private:
    void
    touch(std::uint32_t set, std::uint32_t way)
    {
        std::uint8_t *s = &stack_[static_cast<std::size_t>(set) * ways_];
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
    std::vector<std::uint8_t> stack_;
};

/**
 * Bit-PLRU (paper Section 2.2). Per set: one MRU bitmask word.
 */
class BitPlruEngine
{
  public:
    BitPlruEngine(std::uint32_t sets, std::uint32_t ways)
        : ways_(ways), full_(low_mask(ways)), mru_(sets, 0)
    {
        assert(ways <= 64 && "MRU bitmask is one 64-bit word");
    }

    void on_access(std::uint32_t set, std::uint32_t way) { set_mru(set, way); }
    void on_fill(std::uint32_t set, std::uint32_t way) { set_mru(set, way); }

    void
    on_invalidate(std::uint32_t set, std::uint32_t way)
    {
        mru_[set] &= ~(1ULL << way);
    }

    std::uint32_t
    victim(std::uint32_t set)
    {
        // Lowest index whose MRU bit is clear; defensive 0 if none (the
        // reference's unreachable fallback).
        const auto w =
            static_cast<std::uint32_t>(std::countr_one(mru_[set]));
        return w < ways_ ? w : 0;
    }

    /** victim() + on_fill() on one load/store of the MRU word. */
    std::uint32_t
    victim_and_fill(std::uint32_t set)
    {
        const std::uint64_t m = mru_[set];
        auto w = static_cast<std::uint32_t>(std::countr_one(m));
        if (w >= ways_)
            w = 0;
        const std::uint64_t nm = m | (1ULL << w);
        mru_[set] = nm == full_ ? (1ULL << w) : nm;
        return w;
    }

  private:
    void
    set_mru(std::uint32_t set, std::uint32_t way)
    {
        std::uint64_t m = mru_[set] | (1ULL << way);
        // When the last MRU bit is set, clear all the others.
        mru_[set] = m == full_ ? (1ULL << way) : m;
    }

    std::uint32_t ways_;
    std::uint64_t full_;
    std::vector<std::uint64_t> mru_;
};

/**
 * NRU: reference bits cleared lazily at victim selection.
 */
class NruEngine
{
  public:
    NruEngine(std::uint32_t sets, std::uint32_t ways)
        : ways_(ways), ref_(sets, 0)
    {
        assert(ways <= 64 && "reference bitmask is one 64-bit word");
    }

    void
    on_access(std::uint32_t set, std::uint32_t way)
    {
        ref_[set] |= 1ULL << way;
    }

    void
    on_fill(std::uint32_t set, std::uint32_t way)
    {
        ref_[set] |= 1ULL << way;
    }

    void
    on_invalidate(std::uint32_t set, std::uint32_t way)
    {
        ref_[set] &= ~(1ULL << way);
    }

    std::uint32_t
    victim(std::uint32_t set)
    {
        const auto w =
            static_cast<std::uint32_t>(std::countr_one(ref_[set]));
        if (w < ways_)
            return w;
        // All referenced: clear every bit and take way 0, exactly like the
        // reference's second pass.
        ref_[set] = 0;
        return 0;
    }

    /** victim() + on_fill() without reloading the reference word. */
    std::uint32_t
    victim_and_fill(std::uint32_t set)
    {
        const std::uint64_t r = ref_[set];
        auto w = static_cast<std::uint32_t>(std::countr_one(r));
        if (w < ways_) {
            ref_[set] = r | (1ULL << w);
            return w;
        }
        ref_[set] = 1;  // cleared, then way 0 filled
        return 0;
    }

  private:
    std::uint32_t ways_;
    std::vector<std::uint64_t> ref_;
};

/**
 * Binary-tree pseudo-LRU. Per set: the ways-1 tree bits in one word,
 * bit n = node n in the reference's array layout. @pre ways is 2^k.
 */
class TreePlruEngine
{
  public:
    TreePlruEngine(std::uint32_t sets, std::uint32_t ways)
        : ways_(ways), bits_(sets, 0)
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

    void on_access(std::uint32_t set, std::uint32_t way) { touch(set, way); }
    void on_fill(std::uint32_t set, std::uint32_t way) { touch(set, way); }
    void on_invalidate(std::uint32_t, std::uint32_t) {}

    std::uint32_t victim(std::uint32_t set) const { return walk(bits_[set]); }

    /** victim() + on_fill(): the walk, then the chosen way's masks. */
    std::uint32_t
    victim_and_fill(std::uint32_t set)
    {
        const std::uint32_t way = walk(bits_[set]);
        touch(set, way);
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
    touch(std::uint32_t set, std::uint32_t way)
    {
        // Flip each node on the path to point away from this way.
        bits_[set] = (bits_[set] | touch_set_[way]) & ~touch_clear_[way];
    }

    std::uint32_t ways_;
    std::vector<std::uint64_t> bits_;
    std::array<std::uint64_t, 64> touch_set_{};
    std::array<std::uint64_t, 64> touch_clear_{};
};

/**
 * SRRIP with 2-bit RRPVs, one byte per way in a contiguous array.
 */
class SrripEngine
{
  public:
    static constexpr std::uint8_t kMaxRrpv = 3;

    SrripEngine(std::uint32_t sets, std::uint32_t ways)
        : ways_(ways),
          rrpv_(static_cast<std::size_t>(sets) * ways, kMaxRrpv)
    {
    }

    void
    on_access(std::uint32_t set, std::uint32_t way)
    {
        rrpv_[static_cast<std::size_t>(set) * ways_ + way] = 0;
    }

    void
    on_fill(std::uint32_t set, std::uint32_t way)
    {
        rrpv_[static_cast<std::size_t>(set) * ways_ + way] = kMaxRrpv - 1;
    }

    void
    on_invalidate(std::uint32_t set, std::uint32_t way)
    {
        rrpv_[static_cast<std::size_t>(set) * ways_ + way] = kMaxRrpv;
    }

    std::uint32_t
    victim(std::uint32_t set)
    {
        std::uint8_t *r = &rrpv_[static_cast<std::size_t>(set) * ways_];
        while (true) {
            for (std::uint32_t w = 0; w < ways_; ++w) {
                if (r[w] == kMaxRrpv)
                    return w;
            }
            for (std::uint32_t w = 0; w < ways_; ++w)
                ++r[w];
        }
    }

    std::uint32_t
    victim_and_fill(std::uint32_t set)
    {
        const std::uint32_t w = victim(set);
        on_fill(set, w);
        return w;
    }

  private:
    std::uint32_t ways_;
    std::vector<std::uint8_t> rrpv_;
};

/** Uniform-random victim; draws from the shared Rng exactly like the
 * reference, preserving the global RNG call order. */
class RandomEngine
{
  public:
    RandomEngine(std::uint32_t ways, Rng *rng) : ways_(ways), rng_(rng)
    {
        assert(rng != nullptr && "random policy needs an Rng");
    }

    void on_access(std::uint32_t, std::uint32_t) {}
    void on_fill(std::uint32_t, std::uint32_t) {}
    void on_invalidate(std::uint32_t, std::uint32_t) {}

    std::uint32_t
    victim(std::uint32_t)
    {
        return static_cast<std::uint32_t>(rng_->next_below(ways_));
    }

    std::uint32_t
    victim_and_fill(std::uint32_t set)
    {
        return victim(set);  // on_fill is a no-op
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
 * per-set vtable load.
 */
class ReplacementEngine
{
  public:
    ReplacementEngine(ReplPolicy policy, std::uint32_t sets,
                      std::uint32_t ways, Rng *rng)
        : policy_(policy), impl_(make(policy, sets, ways, rng))
    {
    }

    void
    on_access(std::uint32_t set, std::uint32_t way)
    {
        dispatch([&](auto &e) { e.on_access(set, way); });
    }

    void
    on_fill(std::uint32_t set, std::uint32_t way)
    {
        dispatch([&](auto &e) { e.on_fill(set, way); });
    }

    void
    on_invalidate(std::uint32_t set, std::uint32_t way)
    {
        dispatch([&](auto &e) { e.on_invalidate(set, way); });
    }

    std::uint32_t
    victim(std::uint32_t set)
    {
        std::uint32_t v = 0;
        dispatch([&](auto &e) { v = e.victim(set); });
        return v;
    }

    /**
     * Equivalent to victim(set) followed by on_fill(set, victim), fused
     * so each engine touches its per-set state once.
     */
    std::uint32_t
    victim_and_fill(std::uint32_t set)
    {
        std::uint32_t v = 0;
        dispatch([&](auto &e) { v = e.victim_and_fill(set); });
        return v;
    }

    ReplPolicy policy() const { return policy_; }

  private:
    using Variant = std::variant<LruEngine, BitPlruEngine, NruEngine,
                                 TreePlruEngine, SrripEngine, RandomEngine>;

    static Variant make(ReplPolicy policy, std::uint32_t sets,
                        std::uint32_t ways, Rng *rng);

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
