#include "cache/flat_replacement.hh"

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

ReplacementEngine::Variant
ReplacementEngine::make(ReplPolicy policy, std::uint32_t ways, Rng *rng)
{
    switch (policy) {
      case ReplPolicy::kLru:
        return Variant{std::in_place_type<LruEngine>, ways};
      case ReplPolicy::kBitPlru:
        return Variant{std::in_place_type<BitPlruEngine>, ways};
      case ReplPolicy::kNru:
        return Variant{std::in_place_type<NruEngine>, ways};
      case ReplPolicy::kTreePlru:
        return Variant{std::in_place_type<TreePlruEngine>, ways};
      case ReplPolicy::kSrrip:
        return Variant{std::in_place_type<SrripEngine>, ways};
      case ReplPolicy::kRandom:
        return Variant{std::in_place_type<RandomEngine>, ways, rng};
    }
    return Variant{std::in_place_type<LruEngine>, ways};
}

}  // namespace anvil::cache
