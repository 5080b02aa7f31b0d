#include "cache/replacement.hh"

#include <cassert>

namespace anvil::cache {

const char *
to_string(ReplPolicy policy)
{
    switch (policy) {
      case ReplPolicy::kLru: return "lru";
      case ReplPolicy::kBitPlru: return "bitplru";
      case ReplPolicy::kNru: return "nru";
      case ReplPolicy::kTreePlru: return "treeplru";
      case ReplPolicy::kSrrip: return "srrip";
      case ReplPolicy::kRandom: return "random";
    }
    return "?";
}

namespace {

/** True LRU via a recency stack (index 0 = MRU). */
class LruPolicy : public SetPolicy
{
  public:
    explicit LruPolicy(std::uint32_t ways)
    {
        stack_.reserve(ways);
        for (std::uint32_t w = 0; w < ways; ++w)
            stack_.push_back(w);
    }

    void on_access(std::uint32_t way) override { touch(way); }
    void on_fill(std::uint32_t way) override { touch(way); }
    void on_invalidate(std::uint32_t way) override
    {
        // Move to LRU position so the way is reused first.
        remove(way);
        stack_.push_back(way);
    }

    std::uint32_t victim() override { return stack_.back(); }

  private:
    void
    touch(std::uint32_t way)
    {
        remove(way);
        stack_.insert(stack_.begin(), way);
    }

    void
    remove(std::uint32_t way)
    {
        for (auto it = stack_.begin(); it != stack_.end(); ++it) {
            if (*it == way) {
                stack_.erase(it);
                return;
            }
        }
    }

    std::vector<std::uint32_t> stack_;
};

/**
 * Bit-PLRU exactly as the paper describes it (Section 2.2): "each cache
 * line in a set has a single MRU bit. Every time a cache line is accessed,
 * its MRU bit is set. The least-recently used cache line is the line with
 * the lowest index whose MRU bit is cleared. When the last MRU bit is set,
 * the other MRU bits in the set are cleared."
 */
class BitPlruPolicy : public SetPolicy
{
  public:
    explicit BitPlruPolicy(std::uint32_t ways) : mru_(ways, false) {}

    void on_access(std::uint32_t way) override { set_mru(way); }
    void on_fill(std::uint32_t way) override { set_mru(way); }
    void on_invalidate(std::uint32_t way) override { mru_[way] = false; }

    std::uint32_t victim() override
    {
        for (std::uint32_t w = 0; w < mru_.size(); ++w) {
            if (!mru_[w])
                return w;
        }
        // Unreachable in normal operation: set_mru never leaves all bits
        // set. Defensive fallback.
        return 0;
    }

  private:
    void
    set_mru(std::uint32_t way)
    {
        mru_[way] = true;
        for (bool b : mru_) {
            if (!b)
                return;
        }
        // Last MRU bit was just set: clear all the others.
        for (std::uint32_t w = 0; w < mru_.size(); ++w)
            mru_[w] = (w == way);
    }

    std::vector<bool> mru_;
};

/**
 * NRU: like Bit-PLRU but the reference bits are cleared lazily at victim
 * selection when none are clear.
 */
class NruPolicy : public SetPolicy
{
  public:
    explicit NruPolicy(std::uint32_t ways) : ref_(ways, false) {}

    void on_access(std::uint32_t way) override { ref_[way] = true; }
    void on_fill(std::uint32_t way) override { ref_[way] = true; }
    void on_invalidate(std::uint32_t way) override { ref_[way] = false; }

    std::uint32_t victim() override
    {
        for (int pass = 0; pass < 2; ++pass) {
            for (std::uint32_t w = 0; w < ref_.size(); ++w) {
                if (!ref_[w])
                    return w;
            }
            for (std::uint32_t w = 0; w < ref_.size(); ++w)
                ref_[w] = false;
        }
        return 0;  // unreachable
    }

  private:
    std::vector<bool> ref_;
};

/** Classic binary-tree pseudo-LRU. @pre ways is a power of two. */
class TreePlruPolicy : public SetPolicy
{
  public:
    explicit TreePlruPolicy(std::uint32_t ways)
        : ways_(ways), bits_(ways > 1 ? ways - 1 : 1, false)
    {
        assert((ways & (ways - 1)) == 0 && "tree PLRU needs 2^k ways");
    }

    void on_access(std::uint32_t way) override { touch(way); }
    void on_fill(std::uint32_t way) override { touch(way); }
    void on_invalidate(std::uint32_t) override {}

    std::uint32_t victim() override
    {
        std::uint32_t node = 0;
        std::uint32_t low = 0;
        std::uint32_t range = ways_;
        while (range > 1) {
            const bool go_right = bits_[node];
            range /= 2;
            if (go_right) {
                low += range;
                node = 2 * node + 2;
            } else {
                node = 2 * node + 1;
            }
        }
        return low;
    }

  private:
    void
    touch(std::uint32_t way)
    {
        // Flip each node on the path to point away from this way.
        std::uint32_t node = 0;
        std::uint32_t low = 0;
        std::uint32_t range = ways_;
        while (range > 1) {
            range /= 2;
            const bool in_right = way >= low + range;
            bits_[node] = !in_right;  // point away from the accessed half
            if (in_right) {
                low += range;
                node = 2 * node + 2;
            } else {
                node = 2 * node + 1;
            }
        }
    }

    std::uint32_t ways_;
    std::vector<bool> bits_;
};

/** SRRIP with 2-bit re-reference prediction values (Jaleel et al.). */
class SrripPolicy : public SetPolicy
{
  public:
    static constexpr std::uint8_t kMaxRrpv = 3;

    explicit SrripPolicy(std::uint32_t ways) : rrpv_(ways, kMaxRrpv) {}

    void on_access(std::uint32_t way) override { rrpv_[way] = 0; }
    void on_fill(std::uint32_t way) override { rrpv_[way] = kMaxRrpv - 1; }
    void on_invalidate(std::uint32_t way) override { rrpv_[way] = kMaxRrpv; }

    std::uint32_t victim() override
    {
        while (true) {
            for (std::uint32_t w = 0; w < rrpv_.size(); ++w) {
                if (rrpv_[w] == kMaxRrpv)
                    return w;
            }
            for (auto &v : rrpv_)
                ++v;
        }
    }

  private:
    std::vector<std::uint8_t> rrpv_;
};

/** Uniform-random victim selection. */
class RandomPolicy : public SetPolicy
{
  public:
    RandomPolicy(std::uint32_t ways, Rng *rng) : ways_(ways), rng_(rng)
    {
        assert(rng != nullptr && "random policy needs an Rng");
    }

    void on_access(std::uint32_t) override {}
    void on_fill(std::uint32_t) override {}
    void on_invalidate(std::uint32_t) override {}

    std::uint32_t victim() override
    {
        return static_cast<std::uint32_t>(rng_->next_below(ways_));
    }

  private:
    std::uint32_t ways_;
    Rng *rng_;
};

}  // namespace

std::unique_ptr<SetPolicy>
make_set_policy(ReplPolicy policy, std::uint32_t ways, Rng *rng)
{
    switch (policy) {
      case ReplPolicy::kLru:
        return std::make_unique<LruPolicy>(ways);
      case ReplPolicy::kBitPlru:
        return std::make_unique<BitPlruPolicy>(ways);
      case ReplPolicy::kNru:
        return std::make_unique<NruPolicy>(ways);
      case ReplPolicy::kTreePlru:
        return std::make_unique<TreePlruPolicy>(ways);
      case ReplPolicy::kSrrip:
        return std::make_unique<SrripPolicy>(ways);
      case ReplPolicy::kRandom:
        return std::make_unique<RandomPolicy>(ways, rng);
    }
    return nullptr;
}

}  // namespace anvil::cache
