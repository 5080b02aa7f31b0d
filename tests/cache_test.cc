/**
 * @file
 * Unit and property tests for the cache subsystem: replacement policies
 * (with the Bit-PLRU behaviour the CLFLUSH-free attack exploits), the
 * set-associative tag store, and the inclusive sliced hierarchy.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cache/replacement.hh"
#include "common/bits.hh"
#include "common/rng.hh"

namespace anvil::cache {
namespace {

Addr
line_addr(std::uint64_t n)
{
    return n * kLineBytes;
}

// ---------------------------------------------------------------------------
// Replacement policies
// ---------------------------------------------------------------------------

TEST(ReplPolicy, ToStringNamesEachPolicy)
{
    EXPECT_STREQ(to_string(ReplPolicy::kLru), "lru");
    EXPECT_STREQ(to_string(ReplPolicy::kBitPlru), "bitplru");
    EXPECT_STREQ(to_string(ReplPolicy::kNru), "nru");
    EXPECT_STREQ(to_string(ReplPolicy::kTreePlru), "treeplru");
    EXPECT_STREQ(to_string(ReplPolicy::kSrrip), "srrip");
    EXPECT_STREQ(to_string(ReplPolicy::kRandom), "random");
}

TEST(LruPolicy, EvictsLeastRecentlyUsed)
{
    auto policy = make_set_policy(ReplPolicy::kLru, 4, nullptr);
    for (std::uint32_t w = 0; w < 4; ++w)
        policy->on_fill(w);
    // Touch 0 and 2; LRU is now 1.
    policy->on_access(0);
    policy->on_access(2);
    EXPECT_EQ(policy->victim(), 1u);
    policy->on_access(1);
    EXPECT_EQ(policy->victim(), 3u);
}

TEST(LruPolicy, InvalidatedWayBecomesVictim)
{
    auto policy = make_set_policy(ReplPolicy::kLru, 4, nullptr);
    for (std::uint32_t w = 0; w < 4; ++w)
        policy->on_fill(w);
    policy->on_invalidate(2);
    EXPECT_EQ(policy->victim(), 2u);
}

TEST(BitPlru, VictimIsLowestClearMruBit)
{
    auto policy = make_set_policy(ReplPolicy::kBitPlru, 4, nullptr);
    policy->on_fill(0);
    policy->on_fill(1);
    // MRU = {0, 1}; lowest clear is way 2.
    EXPECT_EQ(policy->victim(), 2u);
}

TEST(BitPlru, SettingLastMruBitClearsOthers)
{
    // Paper, Section 2.2: "When the last MRU bit is set, the other MRU
    // bits in the set are cleared."
    auto policy = make_set_policy(ReplPolicy::kBitPlru, 4, nullptr);
    for (std::uint32_t w = 0; w < 4; ++w)
        policy->on_fill(w);  // filling way 3 sets the last bit -> reset
    // Only way 3's bit survives; victim = way 0.
    EXPECT_EQ(policy->victim(), 0u);
    policy->on_access(0);
    EXPECT_EQ(policy->victim(), 1u);
}

TEST(NruPolicy, LazyClearOnExhaustion)
{
    auto policy = make_set_policy(ReplPolicy::kNru, 4, nullptr);
    for (std::uint32_t w = 0; w < 4; ++w)
        policy->on_fill(w);
    // All ref bits set: victim() clears all and picks way 0.
    EXPECT_EQ(policy->victim(), 0u);
}

TEST(TreePlru, TracksAccessPath)
{
    auto policy = make_set_policy(ReplPolicy::kTreePlru, 4, nullptr);
    for (std::uint32_t w = 0; w < 4; ++w)
        policy->on_fill(w);
    // Last fill was way 3 (right half); tree points left.
    const std::uint32_t victim = policy->victim();
    EXPECT_LT(victim, 2u);
    policy->on_access(victim);
    EXPECT_NE(policy->victim(), victim);
}

TEST(Srrip, HitPromotesToNearImminent)
{
    auto policy = make_set_policy(ReplPolicy::kSrrip, 4, nullptr);
    for (std::uint32_t w = 0; w < 4; ++w)
        policy->on_fill(w);
    policy->on_access(2);
    // Way 2 has RRPV 0; everyone else ages to 3 before eviction, so way
    // 2 is not the victim.
    EXPECT_NE(policy->victim(), 2u);
}

TEST(RandomPolicy, VictimsStayInRangeAndVary)
{
    Rng rng(9);
    auto policy = make_set_policy(ReplPolicy::kRandom, 8, &rng);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 200; ++i) {
        const std::uint32_t v = policy->victim();
        EXPECT_LT(v, 8u);
        seen.insert(v);
    }
    EXPECT_GT(seen.size(), 4u);
}

/**
 * Property: with any deterministic policy, a hot line that is touched
 * between every fill is never evicted by a single conflicting fill.
 */
class PolicyPropertyTest : public ::testing::TestWithParam<ReplPolicy>
{
};

TEST_P(PolicyPropertyTest, TouchedLineSurvivesOneConflict)
{
    Rng rng(11);
    auto policy = make_set_policy(GetParam(), 8, &rng);
    if (GetParam() == ReplPolicy::kRandom)
        GTEST_SKIP() << "no recency guarantee for random replacement";
    for (std::uint32_t w = 0; w < 8; ++w)
        policy->on_fill(w);
    for (int round = 0; round < 50; ++round) {
        policy->on_access(5);
        const std::uint32_t victim = policy->victim();
        EXPECT_NE(victim, 5u) << "policy evicted the just-touched way";
        policy->on_fill(victim);
    }
}

TEST_P(PolicyPropertyTest, VictimAlwaysInRange)
{
    // 12 ways, like the LLC; Tree-PLRU is defined for 2^k ways only.
    const std::uint32_t ways = GetParam() == ReplPolicy::kTreePlru ? 16 : 12;
    Rng rng(12);
    auto policy = make_set_policy(GetParam(), ways, &rng);
    for (std::uint32_t w = 0; w < ways; ++w)
        policy->on_fill(w);
    Rng driver(13);
    for (int i = 0; i < 500; ++i) {
        if (driver.next_bool(0.5))
            policy->on_access(
                static_cast<std::uint32_t>(driver.next_below(ways)));
        const std::uint32_t victim = policy->victim();
        EXPECT_LT(victim, ways);
        if (driver.next_bool(0.3))
            policy->on_fill(victim);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyPropertyTest,
    ::testing::Values(ReplPolicy::kLru, ReplPolicy::kBitPlru,
                      ReplPolicy::kNru, ReplPolicy::kTreePlru,
                      ReplPolicy::kSrrip, ReplPolicy::kRandom),
    [](const ::testing::TestParamInfo<ReplPolicy> &info) {
        return to_string(info.param);
    });

// ---------------------------------------------------------------------------
// The attack-relevant Bit-PLRU steady-state property
// ---------------------------------------------------------------------------

/**
 * The CLFLUSH-free attack's access pattern: two thrash lines alternate in
 * one way while 11 touch lines keep the other ways' MRU bits refreshed.
 * Property (on Bit-PLRU): in steady state both thrash lines miss on every
 * cycle and no touch line ever misses.
 */
TEST(BitPlruAttackPattern, TwoMissesPerIterationSteadyState)
{
    Cache cache("llc-set", 1, 12, ReplPolicy::kBitPlru, nullptr);
    const Addr a = line_addr(100);
    const Addr b = line_addr(200);
    std::vector<Addr> touches;
    for (std::uint64_t i = 0; i < 11; ++i)
        touches.push_back(line_addr(300 + i));

    auto run_cycle = [&](Addr lead) {
        int misses = 0;
        if (!cache.access(lead)) {
            cache.fill(lead);
            ++misses;
        }
        for (const Addr t : touches) {
            if (!cache.access(t)) {
                cache.fill(t);
                ++misses;
            }
        }
        return misses;
    };

    // Warm up two full iterations.
    for (int i = 0; i < 2; ++i) {
        run_cycle(a);
        run_cycle(b);
    }
    // Steady state: each half-cycle misses exactly once (the lead line).
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(run_cycle(a), 1) << "iteration " << i;
        EXPECT_EQ(run_cycle(b), 1) << "iteration " << i;
    }
}

/** The same pattern on true LRU also thrashes the pair (sanity check). */
TEST(BitPlruAttackPattern, PatternAlsoWorksOnTrueLru)
{
    Cache cache("llc-set", 1, 12, ReplPolicy::kLru, nullptr);
    const Addr a = line_addr(100);
    const Addr b = line_addr(200);
    std::vector<Addr> touches;
    for (std::uint64_t i = 0; i < 11; ++i)
        touches.push_back(line_addr(300 + i));

    auto touch_all = [&] {
        for (const Addr t : touches) {
            if (!cache.access(t))
                cache.fill(t);
        }
    };
    for (int i = 0; i < 3; ++i) {  // warmup
        if (!cache.access(a))
            cache.fill(a);
        touch_all();
        if (!cache.access(b))
            cache.fill(b);
        touch_all();
    }
    int a_misses = 0;
    for (int i = 0; i < 50; ++i) {
        if (!cache.access(a)) {
            cache.fill(a);
            ++a_misses;
        }
        touch_all();
        if (!cache.access(b))
            cache.fill(b);
        touch_all();
    }
    EXPECT_EQ(a_misses, 50);
}

// ---------------------------------------------------------------------------
// Cache tag store
// ---------------------------------------------------------------------------

TEST(Cache, HitAfterFillMissBefore)
{
    Cache cache("t", 16, 4, ReplPolicy::kLru, nullptr);
    const Addr pa = 0x1234;
    EXPECT_FALSE(cache.access(pa));
    cache.fill(pa);
    EXPECT_TRUE(cache.access(pa));
    // Same line, different byte.
    EXPECT_TRUE(cache.access(pa + 1));
    // Different line.
    EXPECT_FALSE(cache.access(pa + kLineBytes));
}

TEST(Cache, FillEvictsWhenSetFull)
{
    Cache cache("t", 1, 2, ReplPolicy::kLru, nullptr);
    EXPECT_EQ(cache.fill(line_addr(1)), kInvalidAddr);  // free way
    EXPECT_EQ(cache.fill(line_addr(2)), kInvalidAddr);
    EXPECT_EQ(cache.fill(line_addr(3)), line_addr(1));  // LRU
    EXPECT_FALSE(cache.contains(line_addr(1)));
    EXPECT_TRUE(cache.contains(line_addr(2)));
    EXPECT_TRUE(cache.contains(line_addr(3)));
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache cache("t", 16, 4, ReplPolicy::kLru, nullptr);
    cache.fill(0x5000);
    EXPECT_TRUE(cache.invalidate(0x5000));
    EXPECT_FALSE(cache.invalidate(0x5000));
    EXPECT_FALSE(cache.contains(0x5000));
    EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(Cache, SetIndexUsesLineBits)
{
    Cache cache("t", 16, 4, ReplPolicy::kLru, nullptr);
    EXPECT_EQ(cache.set_index(0), 0u);
    EXPECT_EQ(cache.set_index(kLineBytes), 1u);
    EXPECT_EQ(cache.set_index(16 * kLineBytes), 0u);  // wraps
}

TEST(Cache, StatsCount)
{
    Cache cache("t", 16, 4, ReplPolicy::kLru, nullptr);
    cache.access(0x100);  // miss
    cache.fill(0x100);
    cache.access(0x100);  // hit
    EXPECT_EQ(cache.stats().accesses, 2u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().fills, 1u);
    EXPECT_EQ(cache.size_bytes(), 16u * 4u * kLineBytes);
}

TEST(Cache, LinesInSetTelemetry)
{
    Cache cache("t", 4, 2, ReplPolicy::kLru, nullptr);
    cache.fill(line_addr(0));      // set 0
    cache.fill(line_addr(4));      // set 0 (wraps: 4 % 4 == 0)
    cache.fill(line_addr(1));      // set 1
    EXPECT_EQ(cache.lines_in_set(0).size(), 2u);
    EXPECT_EQ(cache.lines_in_set(1).size(), 1u);
    EXPECT_TRUE(cache.lines_in_set(2).empty());
}

TEST(Cache, EmptyWaysAndPaddingLanesNeverHit)
{
    // 6 ways = 8 tag lanes. Fresh lanes hold 0, the tag of address 0, and
    // an invalidated way keeps its stale tag; neither may hit.
    Cache cache("t", 1, 6, ReplPolicy::kBitPlru, nullptr);
    EXPECT_FALSE(cache.contains(0));
    EXPECT_FALSE(cache.access(0));
    cache.fill(line_addr(7));
    EXPECT_FALSE(cache.contains(0));
    EXPECT_TRUE(cache.invalidate(line_addr(7)));
    EXPECT_FALSE(cache.contains(line_addr(7)));
    cache.fill(0);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_EQ(cache.lines_in_set(0), std::vector<Addr>{0});
}

TEST(Cache, DefaultGeometriesUseOneAlignedHostLinePerSet)
{
    const CacheHierarchy h{HierarchyConfig{}};
    for (const Cache *c : {&h.l1(), &h.l2(), &h.llc(0), &h.llc(1)}) {
        EXPECT_EQ(c->record_bytes(), 64u) << c->name();
        for (const std::uint32_t set : {0u, 1u, c->sets() - 1}) {
            EXPECT_EQ(
                reinterpret_cast<std::uintptr_t>(c->record_address(set)) %
                    64,
                0u)
                << c->name() << " set " << set;
        }
    }
}

TEST(CacheProbe, VectorAndScalarMasksAgreeOnRandomSets)
{
    // Tags are drawn from a small pool so lanes repeat; the probed tag is
    // a valid way's, a stale (invalid) way's, a padding lane's or fresh.
    // On x86 both the SSE2 probe and the scalar fallback run, so the
    // fallback is tested even where it is not the one the cache uses.
    Rng rng(0x7A6D05EULL);
    for (const std::uint32_t ways : {1u, 2u, 6u, 8u, 12u, 16u, 64u}) {
        const SetLayout layout(ways, 8);
        ASSERT_EQ(layout.lanes % 4, 0u);
        ASSERT_GE(layout.lanes, ways);
        alignas(16) std::uint32_t tags[64];
        for (int trial = 0; trial < 3000; ++trial) {
            for (std::uint32_t lane = 0; lane < layout.lanes; ++lane)
                tags[lane] = static_cast<std::uint32_t>(rng.next_below(8));
            std::uint64_t valid = 0;
            switch (trial % 3) {
              case 0:
                valid = low_mask(ways);
                break;
              case 1:
                valid = rng.next_u64() & low_mask(ways);
                break;
              default:
                break;  // empty set
            }
            const auto lane =
                static_cast<std::uint32_t>(rng.next_below(layout.lanes));
            const std::uint32_t key =
                trial % 4 == 0 ? static_cast<std::uint32_t>(rng.next_u64())
                               : tags[lane];

            std::uint64_t want = 0;
            for (std::uint32_t w = 0; w < layout.lanes; ++w)
                want |= std::uint64_t{tags[w] == key} << w;
            const std::uint64_t scalar =
                tag_match_mask_scalar(tags, layout.lanes, key);
            ASSERT_EQ(scalar, want) << ways << " ways, trial " << trial;
#ifdef __SSE2__
            ASSERT_EQ(tag_match_mask_sse2(tags, layout.lanes, key), scalar)
                << ways << " ways, trial " << trial;
#endif
            // Masked by the valid ways, the probe never reports a padding
            // lane or an invalid way.
            EXPECT_EQ(tag_match_mask(tags, layout.lanes, key) & valid &
                          ~low_mask(ways),
                      0u);
            EXPECT_EQ(tag_match_mask(tags, layout.lanes, key) & valid,
                      want & valid);
        }
    }
}

// ---------------------------------------------------------------------------
// Hierarchy
// ---------------------------------------------------------------------------

HierarchyConfig
small_hierarchy()
{
    HierarchyConfig config;
    config.l1_sets = 8;
    config.l2_sets = 32;
    config.llc_slices = 2;
    config.llc_sets_per_slice = 128;
    return config;
}

TEST(Hierarchy, MissFillsAllLevels)
{
    CacheHierarchy h(small_hierarchy());
    const Addr pa = 0x100000;
    const auto first = h.access(pa, AccessType::kLoad);
    EXPECT_EQ(first.source, DataSource::kDram);
    EXPECT_TRUE(first.llc_miss);
    const auto second = h.access(pa, AccessType::kLoad);
    EXPECT_EQ(second.source, DataSource::kL1);
    EXPECT_EQ(second.latency, h.config().l1_latency);
    EXPECT_FALSE(second.llc_miss);
}

TEST(Hierarchy, LatenciesPerLevel)
{
    CacheHierarchy h(small_hierarchy());
    const Addr pa = 0x200000;
    EXPECT_EQ(h.access(pa, AccessType::kLoad).latency,
              h.config().llc_latency);  // miss pays LLC lookup (+DRAM)
    EXPECT_EQ(h.access(pa, AccessType::kLoad).latency,
              h.config().l1_latency);
}

TEST(Hierarchy, ClflushEvictsEverywhere)
{
    CacheHierarchy h(small_hierarchy());
    const Addr pa = 0x300000;
    h.access(pa, AccessType::kLoad);
    EXPECT_TRUE(h.present_anywhere(pa));
    EXPECT_EQ(h.clflush(pa), 3);
    EXPECT_FALSE(h.present_anywhere(pa));
    // Next access goes to DRAM again.
    EXPECT_TRUE(h.access(pa, AccessType::kLoad).llc_miss);
}

TEST(Hierarchy, SliceSelectionIsDeterministicAndBalanced)
{
    CacheHierarchy h(small_hierarchy());
    std::uint64_t counts[2] = {0, 0};
    for (Addr pa = 0; pa < (1 << 22); pa += 4096 + kLineBytes) {
        const std::uint32_t slice = h.llc_slice(pa);
        ASSERT_LT(slice, 2u);
        EXPECT_EQ(slice, h.llc_slice(pa));  // deterministic
        ++counts[slice];
    }
    const double balance = static_cast<double>(counts[0]) /
                           static_cast<double>(counts[0] + counts[1]);
    EXPECT_NEAR(balance, 0.5, 0.1);
}

TEST(Hierarchy, InclusionInvariantUnderConflictPressure)
{
    // Property: any line present in L1 or L2 is also present in the LLC.
    HierarchyConfig config = small_hierarchy();
    CacheHierarchy h(config);
    Rng rng(17);
    std::vector<Addr> pool;
    for (int i = 0; i < 2000; ++i)
        pool.push_back(rng.next_below(1 << 24) & ~(kLineBytes - 1));
    for (int i = 0; i < 20000; ++i) {
        const Addr pa = pool[rng.next_below(pool.size())];
        h.access(pa, rng.next_bool(0.3) ? AccessType::kStore
                                        : AccessType::kLoad);
    }
    // Sweep every L1/L2 set and check inclusion.
    for (std::uint32_t set = 0; set < config.l1_sets; ++set) {
        for (const Addr line : h.l1().lines_in_set(set)) {
            EXPECT_TRUE(h.llc(h.llc_slice(line)).contains(line))
                << "L1 line absent from LLC";
        }
    }
    for (std::uint32_t set = 0; set < config.l2_sets; ++set) {
        for (const Addr line : h.l2().lines_in_set(set)) {
            EXPECT_TRUE(h.llc(h.llc_slice(line)).contains(line))
                << "L2 line absent from LLC";
        }
    }
}

TEST(Hierarchy, LlcStatsAggregateSlices)
{
    CacheHierarchy h(small_hierarchy());
    for (Addr pa = 0; pa < (1 << 20); pa += 4096)
        h.access(pa, AccessType::kLoad);
    const CacheStats total = h.llc_stats();
    EXPECT_EQ(total.accesses,
              h.llc(0).stats().accesses + h.llc(1).stats().accesses);
    EXPECT_GT(total.misses, 0u);
}

TEST(Hierarchy, DefaultConfigMatchesSandyBridge)
{
    const HierarchyConfig config;
    EXPECT_EQ(config.llc_size_bytes(), 3ULL << 20);  // 3 MB LLC
    EXPECT_EQ(config.llc_ways, 12u);                 // 12-way
    EXPECT_EQ(config.llc_latency, 29u);              // 26-31 cycles
    EXPECT_EQ(config.llc_policy, ReplPolicy::kBitPlru);
}

}  // namespace
}  // namespace anvil::cache
