/**
 * @file
 * Golden-trace equivalence: the flat replacement engines
 * (flat_replacement.hh) must reproduce the victim/eviction sequences of
 * the retained per-set virtual SetPolicy reference (replacement.hh)
 * bit-exactly, over randomized traces that exercise hits, fills,
 * invalidations, and both the split (victim + on_fill) and fused
 * (victim_and_fill) eviction paths. The engines keep their per-set state
 * inside set records laid out exactly as the cache lays them out
 * (SetLayout), and every record byte outside the engine's state must
 * survive each operation untouched.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/flat_replacement.hh"
#include "reference/replacement.hh"
#include "common/rng.hh"

namespace anvil::cache {
namespace {

constexpr std::uint32_t kSets = 8;
constexpr std::uint64_t kTraceSeed = 0x7ACEDBEEFULL;
constexpr std::uint64_t kPolicySeed = 0xCACE5EEDULL;

/**
 * Drives a randomized trace through a flat ReplacementEngine and a bank of
 * per-set SetPolicy references in lockstep, asserting identical victim
 * choices throughout.
 *
 * The engine's state lives at SetLayout::kStateOffset of 64-byte-aligned
 * records whose valid mask and tag lanes (padding lanes included) are
 * written as Cache writes them; after every operation the record must
 * equal a shadow copy everywhere outside the engine's own state bytes.
 *
 * Occupancy is modelled the way Cache does it: invalid ways are filled
 * lowest-index first, and victim() is only consulted when the set is full
 * (the SetPolicy contract). @p invalidate_weight scales how often a full
 * set gets a way invalidated instead of touched or evicted, so
 * invalidate-heavy traces stress the policies' invalid-way bookkeeping.
 */
void
run_equivalence_trace(ReplPolicy policy, std::uint32_t ways,
                      std::uint32_t ops, std::uint32_t invalidate_weight)
{
    // Separate but identically seeded RNGs for the two implementations:
    // kRandom must draw in the same order on both sides. The trace uses
    // its own generator so it cannot perturb the policy streams.
    Rng engine_rng(kPolicySeed);
    Rng ref_rng(kPolicySeed);
    Rng trace(kTraceSeed ^ static_cast<std::uint64_t>(policy));

    ReplacementEngine engine(policy, ways, &engine_rng);
    std::vector<std::unique_ptr<SetPolicy>> reference;
    for (std::uint32_t s = 0; s < kSets; ++s)
        reference.push_back(make_set_policy(policy, ways, &ref_rng));

    std::vector<std::uint64_t> valid(kSets, 0);
    const std::uint64_t full = (ways == 64)
                                   ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << ways) - 1;

    struct alignas(64) HostLine {
        unsigned char bytes[64];
    };
    const std::uint32_t state_bytes = engine.state_bytes();
    const SetLayout layout(ways, state_bytes);
    ASSERT_LE(SetLayout::kStateOffset + state_bytes, layout.tag_offset);
    std::vector<HostLine> lines(kSets * layout.bytes / sizeof(HostLine));
    const auto record = [&](std::uint32_t set) {
        return reinterpret_cast<std::uint8_t *>(lines.data()) +
               static_cast<std::size_t>(set) * layout.bytes;
    };
    const auto state = [&](std::uint32_t set) {
        return record(set) + SetLayout::kStateOffset;
    };
    const auto tags = [&](std::uint32_t set) {
        return reinterpret_cast<std::uint32_t *>(record(set) +
                                                 layout.tag_offset);
    };
    // Every lane starts with a distinct non-zero pattern, so a stray
    // engine write into a padding lane or a stale tag is visible.
    for (std::uint32_t s = 0; s < kSets; ++s) {
        engine.init(state(s));
        for (std::uint32_t lane = 0; lane < layout.lanes; ++lane)
            tags(s)[lane] = 0xA5A50000u | (s << 8) | lane;
    }
    // The record as it must look: the test writes the valid mask and tags
    // (as Cache does) into both, and copies in the engine's state bytes
    // before comparing.
    std::vector<std::uint8_t> shadow(lines.size() * sizeof(HostLine));
    std::memcpy(shadow.data(), lines.data(), shadow.size());
    const auto write = [&](std::uint32_t set, std::uint32_t offset,
                           const void *src, std::size_t n) {
        std::memcpy(record(set) + offset, src, n);
        std::memcpy(shadow.data() + std::size_t{set} * layout.bytes + offset,
                    src, n);
    };
    const auto record_intact = [&](std::uint32_t set) {
        std::uint8_t *want = shadow.data() + std::size_t{set} * layout.bytes;
        std::memcpy(want + SetLayout::kStateOffset, state(set), state_bytes);
        return std::memcmp(want, record(set), layout.bytes) == 0;
    };

    const auto nth_valid_way = [&](std::uint32_t set, std::uint64_t n) {
        std::uint64_t m = valid[set];
        std::uint32_t w = 0;
        for (;; ++w) {
            if ((m >> w) & 1) {
                if (n == 0)
                    return w;
                --n;
            }
        }
    };

    for (std::uint32_t i = 0; i < ops; ++i) {
        const auto set =
            static_cast<std::uint32_t>(trace.next_below(kSets));

        if (valid[set] != full) {
            // Free way available: fill lowest-index invalid way, exactly
            // like Cache::fill's free-way path.
            std::uint32_t w = 0;
            while ((valid[set] >> w) & 1)
                ++w;
            valid[set] |= std::uint64_t{1} << w;
            write(set, SetLayout::kValidOffset, &valid[set], 8);
            write(set, layout.tag_offset + 4 * w, &i, 4);
            engine.on_fill(state(set), w);
            reference[set]->on_fill(w);
            ASSERT_TRUE(record_intact(set))
                << to_string(policy) << " wrote outside its state, op " << i;
            continue;
        }

        const auto op = trace.next_below(6 + invalidate_weight);
        if (op < 2) {
            // Hit: touch a valid way.
            const auto w = nth_valid_way(
                set, trace.next_below(static_cast<std::uint64_t>(ways)));
            engine.on_access(state(set), w);
            reference[set]->on_access(w);
        } else if (op < 4) {
            // Eviction via the split path.
            const std::uint32_t got = engine.victim(state(set));
            const std::uint32_t want = reference[set]->victim();
            ASSERT_EQ(got, want) << to_string(policy) << " victim, op " << i;
            engine.on_fill(state(set), got);
            reference[set]->on_fill(want);
        } else if (op < 6) {
            // Eviction via the fused path: victim_and_fill must equal
            // victim() followed by on_fill(victim).
            const std::uint32_t got = engine.victim_and_fill(state(set));
            const std::uint32_t want = reference[set]->victim();
            ASSERT_EQ(got, want)
                << to_string(policy) << " victim_and_fill, op " << i;
            reference[set]->on_fill(want);
        } else {
            // Invalidate a valid way.
            const auto w = nth_valid_way(
                set, trace.next_below(static_cast<std::uint64_t>(ways)));
            valid[set] &= ~(std::uint64_t{1} << w);
            write(set, SetLayout::kValidOffset, &valid[set], 8);
            engine.on_invalidate(state(set), w);
            reference[set]->on_invalidate(w);
        }
        ASSERT_TRUE(record_intact(set))
            << to_string(policy) << " wrote outside its state, op " << i;
    }
}

class FlatEngineEquivalence : public ::testing::TestWithParam<ReplPolicy> {};

TEST_P(FlatEngineEquivalence, MatchesReferenceOnMixedTrace)
{
    run_equivalence_trace(GetParam(), 8, 20000, 1);
}

TEST_P(FlatEngineEquivalence, MatchesReferenceOnInvalidateHeavyTrace)
{
    run_equivalence_trace(GetParam(), 8, 20000, 12);
}

TEST_P(FlatEngineEquivalence, MatchesReferenceAtLlcAssociativity)
{
    // 12 ways, like the modelled LLC. Tree-PLRU requires 2^k ways, so it
    // keeps the 8-way shape here.
    const std::uint32_t ways = GetParam() == ReplPolicy::kTreePlru ? 16 : 12;
    run_equivalence_trace(GetParam(), ways, 20000, 3);
}

// Invalidate-heavy at 6 and 12 ways: the sets are often partly valid,
// the tag lanes are padded (6 -> 8 lanes), and the LRU and SRRIP state
// bytes (6 and 12 per set) sit next to the tags in the record.
// Tree-PLRU needs 2^k ways, so it runs at 8 and 16 ways.
TEST_P(FlatEngineEquivalence, MatchesReferenceOnInvalidateHeavyTraceAt6Ways)
{
    const std::uint32_t ways = GetParam() == ReplPolicy::kTreePlru ? 8 : 6;
    run_equivalence_trace(GetParam(), ways, 20000, 12);
}

TEST_P(FlatEngineEquivalence, MatchesReferenceOnInvalidateHeavyTraceAt12Ways)
{
    const std::uint32_t ways = GetParam() == ReplPolicy::kTreePlru ? 16 : 12;
    run_equivalence_trace(GetParam(), ways, 20000, 12);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, FlatEngineEquivalence,
    ::testing::Values(ReplPolicy::kLru, ReplPolicy::kBitPlru,
                      ReplPolicy::kNru, ReplPolicy::kTreePlru,
                      ReplPolicy::kSrrip, ReplPolicy::kRandom),
    [](const ::testing::TestParamInfo<ReplPolicy> &info) {
        return to_string(info.param);
    });

}  // namespace
}  // namespace anvil::cache
