/**
 * @file
 * Unit tests for src/common: RNG, statistics, units, table formatting.
 */
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/text.hh"
#include "common/types.hh"
#include "common/units.hh"

namespace anvil {
namespace {

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next_u64();
        EXPECT_EQ(va, b.next_u64());
        (void)c.next_u64();
    }
    Rng a2(42), c2(43);
    EXPECT_NE(a2.next_u64(), c2.next_u64());
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng rng(1);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.next_below(bound), bound);
    }
}

TEST(Rng, NextBelowCoversRange)
{
    Rng rng(2);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.next_below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(5);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.next_bool(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Rng, HashUnitDoubleIsDeterministicAndUniform)
{
    EXPECT_EQ(hash_unit_double(1, 2), hash_unit_double(1, 2));
    EXPECT_NE(hash_unit_double(1, 2), hash_unit_double(2, 1));
    RunningStat stat;
    for (std::uint64_t i = 0; i < 10000; ++i)
        stat.add(hash_unit_double(i, i * 3 + 1));
    EXPECT_NEAR(stat.mean(), 0.5, 0.02);
    EXPECT_GE(stat.min(), 0.0);
    EXPECT_LT(stat.max(), 1.0);
}

TEST(RunningStat, BasicMoments)
{
    RunningStat s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Units, TickConversionsRoundTrip)
{
    EXPECT_EQ(ms(1), 1000 * us(1));
    EXPECT_EQ(us(1), 1000 * ns(1));
    EXPECT_EQ(seconds(1), 1000 * ms(1));
    EXPECT_DOUBLE_EQ(to_ms(ms(6.0)), 6.0);
    EXPECT_DOUBLE_EQ(to_us(us(7.8)), 7.8);
}

TEST(Units, CoreClockCycleMath)
{
    const CoreClock clock(2.6);
    // 150 cycles at 2.6 GHz is ~57.7 ns (the paper's DRAM latency).
    EXPECT_NEAR(to_ns(clock.cycles_to_ticks(150)), 57.7, 0.1);
    // Round trip within rounding error.
    EXPECT_NEAR(static_cast<double>(
                    clock.ticks_to_cycles(clock.cycles_to_ticks(1000000))),
                1e6, 2.0);
}

TEST(TextTable, FormatsCountsWithSeparators)
{
    EXPECT_EQ(TextTable::fmt_count(0), "0");
    EXPECT_EQ(TextTable::fmt_count(999), "999");
    EXPECT_EQ(TextTable::fmt_count(1000), "1,000");
    EXPECT_EQ(TextTable::fmt_count(220000), "220,000");
    EXPECT_EQ(TextTable::fmt_count(1234567), "1,234,567");
}

TEST(TextTable, FmtFixedDigits)
{
    EXPECT_EQ(TextTable::fmt(1.2345, 2), "1.23");
    EXPECT_EQ(TextTable::fmt(1.0, 0), "1");
}

TEST(TextTable, RendersHeaderAndRows)
{
    TextTable t("Title");
    t.set_header({"a", "bb"});
    t.add_row({"1", "2"});
    t.add_row({"333"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("Title"), std::string::npos);
    EXPECT_NE(out.find("bb"), std::string::npos);
    EXPECT_NE(out.find("333"), std::string::npos);
}

TEST(Text, EditDistanceClassicCases)
{
    EXPECT_EQ(edit_distance("", ""), 0u);
    EXPECT_EQ(edit_distance("abc", ""), 3u);
    EXPECT_EQ(edit_distance("", "abc"), 3u);
    EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
    EXPECT_EQ(edit_distance("trr", "trr"), 0u);
    EXPECT_EQ(edit_distance("ctr-evict", "ctrr-evict"), 1u);
}

TEST(Text, NearestNameSuggestsOnlyGenuineNearMisses)
{
    const std::vector<std::string> names = {"para", "trr", "ctrr-evict",
                                            "rvc", "dapper"};
    EXPECT_EQ(nearest_name("ctr-evict", names), "ctrr-evict");
    EXPECT_EQ(nearest_name("parra", names), "para");
    // Nothing near: an arbitrary name must not draw a suggestion.
    EXPECT_FALSE(nearest_name("completely-different", names).has_value());
    EXPECT_FALSE(nearest_name("x", {}).has_value());
}

}  // namespace
}  // namespace anvil
