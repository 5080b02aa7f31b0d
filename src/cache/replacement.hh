/**
 * @file
 * Cache replacement policies.
 *
 * The CLFLUSH-free rowhammer attack (paper Section 2.2) works by driving
 * the aggressor address to the least-recently-used position of the LLC's
 * replacement state. The paper reverse-engineered Sandy Bridge's policy as
 * Bit-PLRU ("similar to Not Recently Used"); we implement that policy
 * exactly as described, plus true LRU, NRU, Tree-PLRU, SRRIP, and Random
 * for comparison and ablation.
 *
 * These per-set virtual-dispatch policies are the REFERENCE
 * implementation, kept for golden-equivalence testing; the hot path uses
 * the flat engines in flat_replacement.hh, which must reproduce these
 * victim/eviction sequences bit-exactly.
 */
#ifndef ANVIL_CACHE_REPLACEMENT_HH
#define ANVIL_CACHE_REPLACEMENT_HH

#include <cstdint>
#include <memory>
#include <vector>

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
 * Replacement state for one cache set.
 *
 * The owning cache guarantees that victim() is only called when every way
 * is valid (invalid ways are filled first).
 */
class SetPolicy
{
  public:
    virtual ~SetPolicy() = default;

    /** A hit touched @p way. */
    virtual void on_access(std::uint32_t way) = 0;

    /** A new line was installed in @p way. */
    virtual void on_fill(std::uint32_t way) = 0;

    /** The line in @p way was invalidated. */
    virtual void on_invalidate(std::uint32_t way) = 0;

    /** Chooses the way to evict. */
    virtual std::uint32_t victim() = 0;
};

/**
 * Creates per-set policy state.
 * @param rng used only by kRandom; may be nullptr for other policies.
 */
std::unique_ptr<SetPolicy> make_set_policy(ReplPolicy policy,
                                           std::uint32_t ways, Rng *rng);

}  // namespace anvil::cache

#endif  // ANVIL_CACHE_REPLACEMENT_HH
