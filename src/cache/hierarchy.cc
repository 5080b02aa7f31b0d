#include "cache/hierarchy.hh"

#include <bit>
#include <cassert>

#include "common/bits.hh"

namespace anvil::cache {

namespace {

/**
 * Slice-selection hash. Each slice-index bit is the parity of the physical
 * address ANDed with a per-bit mask, following the style of the
 * reverse-engineered Intel complex-addressing functions (Hund et al.,
 * referenced by the paper as [12]).
 */
constexpr std::uint64_t kSliceMasks[3] = {
    0x1B5F575440ULL,
    0x2EB5FAA880ULL,
    0x3CCCC93100ULL,
};

}  // namespace

CacheHierarchy::CacheHierarchy(const HierarchyConfig &config)
    : config_(config),
      rng_(config.rng_seed),
      l1_("L1", config_.l1_sets, config_.l1_ways, config_.l1_policy, &rng_),
      l2_("L2", config_.l2_sets, config_.l2_ways, config_.l2_policy, &rng_)
{
    assert(is_pow2(config_.llc_slices) && "slice count must be 2^k");
    assert(config_.llc_slices <= kMaxLlcSlices &&
           "at most 3 slice-hash bits defined");
    llc_.reserve(config_.llc_slices);
    for (std::uint32_t s = 0; s < config_.llc_slices; ++s) {
        llc_.emplace_back("LLC.slice" + std::to_string(s),
                          config_.llc_sets_per_slice, config_.llc_ways,
                          config_.llc_policy, &rng_);
    }
}

std::uint32_t
CacheHierarchy::llc_slice(Addr pa) const
{
    if (config_.llc_slices == 1)
        return 0;
    std::uint32_t slice = 0;
    const int bits = std::countr_zero(config_.llc_slices);
    for (int b = 0; b < bits; ++b) {
        const auto parity =
            static_cast<std::uint32_t>(std::popcount(pa & kSliceMasks[b]) &
                                       1);
        slice |= parity << b;
    }
    return slice;
}

std::uint32_t
CacheHierarchy::llc_set(Addr pa) const
{
    return static_cast<std::uint32_t>((pa >> kLineShift) &
                                      (config_.llc_sets_per_slice - 1));
}

void
CacheHierarchy::install_llc(Addr pa, Cache &slice)
{
    const Addr evicted = slice.fill(pa);
    if (evicted != kInvalidAddr) {
        // Inclusive LLC: a line leaving the LLC must leave the core
        // caches too (back-invalidation).
        l1_.invalidate(evicted);
        l2_.invalidate(evicted);
    }
}

CacheHierarchy::Result
CacheHierarchy::access(Addr pa, AccessType type)
{
    (void)type;  // loads and stores are symmetric in the tag-store model
    Result result;

    if (l1_.access(pa)) {
        result.source = DataSource::kL1;
        result.latency = config_.l1_latency;
        return result;
    }
    if (l2_.access(pa)) {
        l1_.fill(pa);
        result.source = DataSource::kL2;
        result.latency = config_.l2_latency;
        return result;
    }

    Cache &slice = llc_[llc_slice(pa)];
    if (slice.access(pa)) {
        l2_.fill(pa);
        l1_.fill(pa);
        result.source = DataSource::kLlc;
        result.latency = config_.llc_latency;
        return result;
    }

    // Miss to DRAM: fill all levels (LLC first, maintaining inclusion).
    install_llc(pa, slice);
    l2_.fill(pa);
    l1_.fill(pa);
    result.source = DataSource::kDram;
    result.latency = config_.llc_latency;  // the caller charges DRAM instead
    result.llc_miss = true;
    return result;
}

int
CacheHierarchy::clflush(Addr pa)
{
    int found = 0;
    found += l1_.invalidate(pa) ? 1 : 0;
    found += l2_.invalidate(pa) ? 1 : 0;
    found += llc_[llc_slice(pa)].invalidate(pa) ? 1 : 0;
    return found;
}

bool
CacheHierarchy::present_anywhere(Addr pa) const
{
    return l1_.contains(pa) || l2_.contains(pa) ||
           llc_[llc_slice(pa)].contains(pa);
}

CacheStats
CacheHierarchy::llc_stats() const
{
    CacheStats total;
    for (const auto &slice : llc_)
        total += slice.stats();
    return total;
}

}  // namespace anvil::cache
