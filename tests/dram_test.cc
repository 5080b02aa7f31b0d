/**
 * @file
 * Unit tests for the DRAM subsystem: address mapping, refresh schedule,
 * the disturbance (rowhammer) model and its Table-1 calibration, row
 * buffers, and refresh stalls.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "common/units.hh"
#include "dram/address_map.hh"
#include "dram/config.hh"
#include "dram/disturbance.hh"
#include "dram/dram_system.hh"

namespace anvil::dram {
namespace {

DramConfig
small_config()
{
    DramConfig config;
    config.ranks_per_channel = 1;
    config.banks_per_rank = 4;
    config.rows_per_bank = 1024;
    config.refresh_slots = 1024;
    config.variation_spread = 0.0;  // uniform thresholds for unit tests
    return config;
}

TEST(DramConfig, DefaultGeometryIsThePapersModule)
{
    const DramConfig config;
    EXPECT_EQ(config.capacity_bytes(), 4ULL << 30);  // 4 GB DDR3
    EXPECT_EQ(config.total_banks(), 16u);
    EXPECT_EQ(config.t_refi(), ms(64) / 8192);  // 7.8125 us
    EXPECT_NEAR(to_us(config.t_refi()), 7.8, 0.05);
}

TEST(DramConfig, DoubleSidedAlphaCalibration)
{
    // 110K activations per side must reach exactly the 400K single-sided
    // threshold: 110K * (2 + alpha) == 400K.
    const DramConfig config;
    EXPECT_NEAR(110000.0 * (2.0 + config.double_sided_alpha), 400000.0,
                1.0);
}

TEST(AddressMap, RoundTripsEveryFieldExhaustively)
{
    const DramConfig config = small_config();
    const AddressMap map(config);
    // Property sweep over a structured sample of coordinates.
    for (std::uint32_t bank = 0; bank < config.banks_per_rank; ++bank) {
        for (std::uint32_t row = 0; row < config.rows_per_bank;
             row += 37) {
            for (std::uint32_t col = 0; col < config.row_bytes;
                 col += 1021) {
                DramCoord coord;
                coord.bank = bank;
                coord.row = row;
                coord.column = col;
                const Addr pa = map.encode(coord);
                EXPECT_EQ(map.decode(pa), coord);
            }
        }
    }
}

TEST(AddressMap, DecodeCoversWholeCapacityDensely)
{
    const DramConfig config = small_config();
    const AddressMap map(config);
    for (Addr pa = 0; pa < map.capacity(); pa += 4093) {
        const DramCoord coord = map.decode(pa);
        EXPECT_LT(coord.bank, config.banks_per_rank);
        EXPECT_LT(coord.row, config.rows_per_bank);
        EXPECT_LT(coord.column, config.row_bytes);
        EXPECT_EQ(map.encode(coord), pa);
    }
}

TEST(AddressMap, RowsAreContiguousBytes)
{
    const DramConfig config = small_config();
    const AddressMap map(config);
    // All addresses within one row_bytes-aligned block share a row.
    const DramCoord base = map.decode(0x123000);
    for (std::uint32_t off = 0; off < 64; ++off) {
        const DramCoord coord = map.decode(0x123000 + off);
        EXPECT_EQ(coord.row, base.row);
        EXPECT_EQ(coord.bank, base.bank);
    }
}

TEST(AddressMap, RowStrideSteppsRowByOne)
{
    const DramConfig config = small_config();
    const AddressMap map(config);
    const Addr pa = 0x40000;
    const DramCoord a = map.decode(pa);
    const DramCoord b = map.decode(pa + map.row_stride());
    EXPECT_EQ(b.row, a.row + 1);
    EXPECT_EQ(b.bank, a.bank);
    EXPECT_EQ(b.column, a.column);
}

TEST(AddressMap, FlatBankIsBijective)
{
    const DramConfig config;  // full 16-bank module
    const AddressMap map(config);
    std::set<std::uint32_t> seen;
    for (std::uint32_t rank = 0; rank < config.ranks_per_channel; ++rank) {
        for (std::uint32_t bank = 0; bank < config.banks_per_rank; ++bank) {
            DramCoord coord;
            coord.rank = rank;
            coord.bank = bank;
            seen.insert(map.flat_bank(coord));
        }
    }
    EXPECT_EQ(seen.size(), config.total_banks());
    EXPECT_EQ(*seen.rbegin(), config.total_banks() - 1);
}

TEST(RefreshSchedule, EveryRowRefreshedOncePerPeriod)
{
    const DramConfig config = small_config();
    const RefreshSchedule schedule(config);
    const Tick period = config.refresh_period;
    for (std::uint32_t row : {0u, 1u, 511u, 1023u}) {
        const Tick first = schedule.phase(row);
        EXPECT_LT(first, period);
        EXPECT_EQ(schedule.last_refresh(row, first), first);
        EXPECT_EQ(schedule.last_refresh(row, first + period - 1), first);
        EXPECT_EQ(schedule.last_refresh(row, first + period),
                  first + period);
    }
}

TEST(RefreshSchedule, BeforeFirstSweepRowsCountAsFresh)
{
    const DramConfig config = small_config();
    const RefreshSchedule schedule(config);
    // A late-phase row queried early was last "refreshed" at t=0.
    const std::uint32_t late_row = 1023;
    ASSERT_GT(schedule.phase(late_row), 0u);
    EXPECT_EQ(schedule.last_refresh(late_row, 1), 0u);
}

TEST(RefreshSchedule, NextRefreshIsStrictlyInFuture)
{
    const DramConfig config = small_config();
    const RefreshSchedule schedule(config);
    for (std::uint32_t row : {0u, 10u, 1000u}) {
        const Tick now = ms(10);
        const Tick next = schedule.next_refresh(row, now);
        EXPECT_GT(next, now);
        EXPECT_EQ(schedule.last_refresh(row, next), next);
    }
}

class DisturbanceTest : public ::testing::Test
{
  protected:
    DramConfig config_ = small_config();
    RefreshSchedule schedule_{config_};
    std::vector<FlipEvent> flips_;
    DisturbanceModel model_{config_, 0, schedule_, flips_};
};

TEST_F(DisturbanceTest, SingleSidedFlipsAtThreshold)
{
    const std::uint32_t aggressor = 100;
    const std::uint64_t threshold = model_.threshold_of(99);
    EXPECT_EQ(threshold, config_.flip_threshold);  // spread disabled
    // Hammer within a fraction of the refresh window so no refresh lands.
    const Tick start = schedule_.last_refresh(99, ms(1)) + 1;
    for (std::uint64_t i = 0; i < threshold; ++i) {
        model_.on_activate(aggressor, start + i);  // 1 tick apart
        // The aggressor's own activation also disturbs row 101; row 99
        // and row 101 accumulate identically.
    }
    ASSERT_GE(flips_.size(), 1u);
    // Exactly the two neighbours flip, each once.
    EXPECT_EQ(flips_.size(), 2u);
    EXPECT_EQ(flips_[0].row + flips_[1].row, 99u + 101u);
}

TEST_F(DisturbanceTest, NoFlipOneActivationShort)
{
    const std::uint32_t aggressor = 200;
    const Tick start = ms(1);
    for (std::uint64_t i = 0; i + 1 < config_.flip_threshold; ++i)
        model_.on_activate(aggressor, start + i);
    EXPECT_TRUE(flips_.empty());
}

TEST_F(DisturbanceTest, DoubleSidedFlipsSuperlinearly)
{
    // Alternate rows 299 and 301; victim 300 accumulates L + R + alpha *
    // min(L, R) and must flip at 110K per side (220K total).
    const Tick start = ms(1);
    std::uint64_t activations = 0;
    Tick t = start;
    while (flips_.empty() && activations < 150000) {
        model_.on_activate(299, t++);
        model_.on_activate(301, t++);
        ++activations;
    }
    ASSERT_FALSE(flips_.empty());
    EXPECT_EQ(flips_[0].row, 300u);
    EXPECT_NEAR(static_cast<double>(activations), 110000.0, 2.0);
}

TEST_F(DisturbanceTest, ActivationRefreshesTheAccessedRow)
{
    // Hammer row 400 halfway to the threshold, then touch victim 399
    // itself (restoring its charge); the remaining half must not flip it.
    const Tick start = ms(1);
    Tick t = start;
    const std::uint64_t half = config_.flip_threshold / 2 + 100;
    for (std::uint64_t i = 0; i < half; ++i)
        model_.on_activate(400, t++);
    model_.on_activate(399, t++);  // victim read => refreshed
    for (std::uint64_t i = 0; i < half; ++i)
        model_.on_activate(400, t++);
    for (const auto &flip : flips_)
        EXPECT_NE(flip.row, 399u);
}

TEST_F(DisturbanceTest, PeriodicRefreshResetsAccumulation)
{
    // Spread 1.5x threshold activations evenly over three refresh
    // periods: no single window accumulates enough to flip.
    const std::uint64_t total = config_.flip_threshold * 3 / 2;
    const Tick span = 3 * config_.refresh_period;
    for (std::uint64_t i = 0; i < total; ++i) {
        const Tick t = 1 + i * (span / total);
        model_.on_activate(500, t);
    }
    EXPECT_TRUE(flips_.empty());
}

TEST_F(DisturbanceTest, FlipRecordedOncePerWindow)
{
    const Tick start = ms(1);
    Tick t = start;
    for (std::uint64_t i = 0; i < config_.flip_threshold + 1000; ++i)
        model_.on_activate(600, t++);
    // 599 and 601 each flip exactly once despite continued hammering.
    EXPECT_EQ(flips_.size(), 2u);
}

TEST_F(DisturbanceTest, NeighborActivationTelemetry)
{
    const Tick start = ms(1);
    model_.on_activate(700, start);
    model_.on_activate(702, start + 1);
    const auto [left, right] = model_.neighbor_activations(701, start + 2);
    EXPECT_EQ(left, 1u);
    EXPECT_EQ(right, 1u);
    EXPECT_GT(model_.disturbance_of(701, start + 2), 2.0);  // alpha kicks in
}

TEST(DisturbanceFlipFloor, NegativeAlphaStillFlipsAtThreshold)
{
    // With alpha < 0 the double-sided term only subtracts, so a
    // single-sided victim (min(L, R) = 0) flips at exactly L = threshold.
    // The integer flip floor that skips the exact check must never exceed
    // the threshold, or such flips are silently dropped.
    DramConfig config = small_config();
    config.double_sided_alpha = -0.5;
    RefreshSchedule schedule{config};
    std::vector<FlipEvent> flips;
    DisturbanceModel model{config, 0, schedule, flips};
    const Tick start = ms(1);
    for (std::uint64_t i = 0; i + 1 < config.flip_threshold; ++i)
        model.on_activate(100, start + i);
    EXPECT_TRUE(flips.empty());
    model.on_activate(100, start + config.flip_threshold);
    ASSERT_EQ(flips.size(), 2u);
    EXPECT_EQ(flips[0].row + flips[1].row, 99u + 101u);
    EXPECT_DOUBLE_EQ(flips[0].disturbance,
                     static_cast<double>(config.flip_threshold));
}

TEST(DisturbanceRowTable, RejectsThresholdsBeyond32Bits)
{
    DramConfig config = small_config();
    config.flip_threshold = std::uint64_t{1} << 32;
    RefreshSchedule schedule{config};
    std::vector<FlipEvent> flips;
    EXPECT_THROW((DisturbanceModel{config, 0, schedule, flips}),
                 std::invalid_argument);
    config.flip_threshold = 2000000000;
    config.variation_spread = 2.0;  // top grade: x 2.8 > 2^32
    EXPECT_THROW((DisturbanceModel{config, 0, schedule, flips}),
                 std::invalid_argument);
}

/**
 * The row table against a naive std::map model of the same physics:
 * per-row windows reset by the refresh schedule or by the row's own
 * activation, L/R counts, and one flip per window at the row's
 * threshold. A hot double-sided pair (whose victims stay in the lookup
 * memo) is interleaved with a stream of fresh rows that grows the table
 * through many rehashes, so a memo entry left pointing into a replaced
 * array would lose counts here.
 */
TEST(DisturbanceRowTable, MatchesNaiveModelAcrossRehashes)
{
    DramConfig config = small_config();
    config.rows_per_bank = 4096;
    config.variation_spread = 2.0;  // per-row thresholds 3000 .. 8400
    config.flip_threshold = 3000;
    RefreshSchedule schedule{config};
    std::vector<FlipEvent> flips;
    DisturbanceModel model{config, 0, schedule, flips};

    struct RefRow {
        Tick start = 0;
        std::uint64_t left = 0;
        std::uint64_t right = 0;
        bool flipped = false;
    };
    std::map<std::uint32_t, RefRow> ref;
    std::vector<std::pair<std::uint32_t, Tick>> ref_flips;
    const auto sync = [&](std::uint32_t row, RefRow &r, Tick now) {
        const Tick refreshed = schedule.last_refresh(row, now);
        if (refreshed > r.start)
            r = RefRow{refreshed};
    };
    const auto ref_disturb = [&](std::uint32_t victim, std::uint32_t aggr,
                                 Tick now) {
        RefRow &r = ref[victim];
        sync(victim, r, now);
        (aggr < victim ? r.left : r.right) += 1;
        const auto l = static_cast<double>(r.left);
        const auto rr = static_cast<double>(r.right);
        const double d =
            l + rr + config.double_sided_alpha * std::min(l, rr);
        if (!r.flipped &&
            d >= static_cast<double>(model.threshold_of(victim))) {
            r.flipped = true;
            ref_flips.emplace_back(victim, now);
        }
    };
    const auto activate = [&](std::uint32_t row, Tick now) {
        model.on_activate(row, now);
        ref[row] = RefRow{now};
        if (row > 0)
            ref_disturb(row - 1, row, now);
        if (row + 1 < config.rows_per_bank)
            ref_disturb(row + 1, row, now);
    };

    // Compares the table's view of @p row with the reference's.
    const auto counts_match = [&](std::uint32_t row, Tick now) {
        RefRow r;
        if (auto it = ref.find(row); it != ref.end()) {
            r = it->second;
            sync(row, r, now);
        }
        return model.neighbor_activations(row, now) ==
               std::pair<std::uint64_t, std::uint64_t>{r.left, r.right};
    };

    // Fresh rows come from [0, 3000); rows from 3100 up are never touched.
    // The hot pair's victims are checked after every step, so an update
    // lost to a stale memo entry shows before a refresh can erase it.
    std::uint32_t lcg = 1;
    Tick t = ms(1);
    int mismatched_steps = 0;
    for (int i = 0; i < 20000; ++i, t += us(5)) {
        activate(2000, t);
        activate(2002, t + 1);
        lcg = lcg * 1103515245U + 12345U;
        activate((lcg >> 8) % 3000, t + 2);
        if (!counts_match(1999, t + 3) || !counts_match(2001, t + 3) ||
            !counts_match(2003, t + 3))
            ++mismatched_steps;
    }
    EXPECT_EQ(mismatched_steps, 0);

    ASSERT_EQ(flips.size(), ref_flips.size());
    ASSERT_FALSE(flips.empty()) << "the hot pair should flip its victims";
    for (std::size_t i = 0; i < flips.size(); ++i) {
        EXPECT_EQ(flips[i].row, ref_flips[i].first) << "flip " << i;
        EXPECT_EQ(flips[i].time, ref_flips[i].second) << "flip " << i;
        EXPECT_EQ(flips[i].threshold, model.threshold_of(flips[i].row));
    }
    for (std::uint32_t row = 0; row < config.rows_per_bank; ++row) {
        RefRow r;
        if (auto it = ref.find(row); it != ref.end()) {
            r = it->second;
            sync(row, r, t);
        }
        const auto [left, right] = model.neighbor_activations(row, t);
        EXPECT_EQ(left, r.left) << "row " << row;
        EXPECT_EQ(right, r.right) << "row " << row;
        const auto l = static_cast<double>(r.left);
        const auto rr = static_cast<double>(r.right);
        EXPECT_DOUBLE_EQ(model.disturbance_of(row, t),
                         l + rr + config.double_sided_alpha *
                                      std::min(l, rr))
            << "row " << row;
    }
    // Never-touched rows read as zero after all that growth.
    for (std::uint32_t row = 3100; row < config.rows_per_bank; ++row) {
        EXPECT_EQ(model.disturbance_of(row, t), 0.0);
        EXPECT_EQ(model.neighbor_activations(row, t),
                  (std::pair<std::uint64_t, std::uint64_t>{0, 0}));
    }
}

TEST(DisturbanceSecondNeighbor, DistanceTwoAccumulatesAtConfiguredWeight)
{
    DramConfig config = small_config();
    config.second_neighbor_weight = 0.5;
    RefreshSchedule schedule{config};
    std::vector<FlipEvent> flips;
    DisturbanceModel model{config, 0, schedule, flips};
    Tick t = ms(1);
    for (int i = 0; i < 1000; ++i)
        model.on_activate(100, t++);
    EXPECT_DOUBLE_EQ(model.disturbance_of(101, t), 1000.0);
    EXPECT_DOUBLE_EQ(model.disturbance_of(102, t), 500.0);
    EXPECT_DOUBLE_EQ(model.disturbance_of(98, t), 500.0);
    EXPECT_DOUBLE_EQ(model.disturbance_of(103, t), 0.0);
}

TEST(DisturbanceSecondNeighbor, ClassicModuleHasNoDistanceTwoCoupling)
{
    // Regression guard for every pre-existing calibration result: the
    // default weight is zero, so distance-2 rows accumulate nothing and
    // the Table-1 single/double-sided numbers are untouched.
    const DramConfig config = small_config();
    ASSERT_EQ(config.second_neighbor_weight, 0.0);
    RefreshSchedule schedule{config};
    std::vector<FlipEvent> flips;
    DisturbanceModel model{config, 0, schedule, flips};
    Tick t = ms(1);
    for (int i = 0; i < 1000; ++i)
        model.on_activate(100, t++);
    EXPECT_DOUBLE_EQ(model.disturbance_of(102, t), 0.0);
    EXPECT_DOUBLE_EQ(model.disturbance_of(98, t), 0.0);
    EXPECT_DOUBLE_EQ(model.disturbance_of(101, t), 1000.0);
}

TEST(DisturbanceSecondNeighbor, HalfDoubleSandwichFlipsTheMiddleVictim)
{
    // The half-double access pattern at the disturbance-model level:
    // hammer the distance-2 pair (100, 104), keep the adjacent rows
    // (101, 103) charged with occasional touches. The sandwiched victim
    // 102 accumulates 2 * w2 per pair and flips; the kept-charged rows
    // never do.
    DramConfig config = small_config();
    config.second_neighbor_weight = 0.5;
    config.flip_threshold = 1000;  // keep the unit test fast
    RefreshSchedule schedule{config};
    std::vector<FlipEvent> flips;
    DisturbanceModel model{config, 0, schedule, flips};
    Tick t = ms(1);
    int pairs = 0;
    while (flips.empty() && pairs < 2000) {
        model.on_activate(100, t++);
        model.on_activate(104, t++);
        if (++pairs % 16 == 0) {
            model.on_activate(101, t++);
            model.on_activate(103, t++);
        }
    }
    ASSERT_FALSE(flips.empty());
    EXPECT_EQ(flips[0].row, 102u);
    // The victim needed roughly threshold / (2 * w2) pairs (the touches
    // of 101/103 chip in a little extra at distance 1).
    EXPECT_LT(pairs, 1000);
    EXPECT_GT(pairs, 500);
}

TEST(DisturbanceVariation, ThresholdsAreDeterministicAndSpread)
{
    DramConfig config = small_config();
    config.variation_spread = 2.0;
    RefreshSchedule schedule(config);
    std::vector<FlipEvent> flips;
    DisturbanceModel a(config, 0, schedule, flips);
    DisturbanceModel b(config, 0, schedule, flips);

    std::uint64_t min_threshold = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_threshold = 0;
    for (std::uint32_t row = 0; row < 1000; ++row) {
        EXPECT_EQ(a.threshold_of(row), b.threshold_of(row));
        min_threshold = std::min(min_threshold, a.threshold_of(row));
        max_threshold = std::max(max_threshold, a.threshold_of(row));
    }
    // One row in ten sits at the minimum; the weakest grade must appear.
    EXPECT_EQ(min_threshold, config.flip_threshold);
    EXPECT_GT(max_threshold, 2 * config.flip_threshold);
}

TEST(Bank, RowBufferHitsAndMisses)
{
    DramConfig config = small_config();
    RefreshSchedule schedule(config);
    std::vector<FlipEvent> flips;
    Bank bank(config, 0, schedule, flips);

    EXPECT_FALSE(bank.access(5, 1000, 0));  // cold activate
    EXPECT_TRUE(bank.access(5, 1001, 0));   // row-buffer hit
    EXPECT_FALSE(bank.access(6, 1002, 0));  // conflict: re-activate
    EXPECT_FALSE(bank.access(5, 1003, 0));
    EXPECT_EQ(bank.activations(), 3u);
}

TEST(Bank, RefreshCommandClosesRowBuffer)
{
    DramConfig config = small_config();
    RefreshSchedule schedule(config);
    std::vector<FlipEvent> flips;
    Bank bank(config, 0, schedule, flips);

    const Tick t_refi = config.t_refi();
    EXPECT_FALSE(bank.access(5, 10, 0));
    EXPECT_TRUE(bank.access(5, t_refi - 1, 0));
    // Crossing a REF boundary precharges: the same row misses again.
    EXPECT_FALSE(bank.access(5, t_refi + 10, t_refi));
    EXPECT_TRUE(bank.access(5, t_refi + 11, t_refi));
}

TEST(DramSystem, RefusesRefreshSlotsShorterThanTrfc)
{
    // 1000 ticks over 8192 REF slots rounds tREFI to 0, which the
    // refresh window arithmetic divides by.
    DramConfig config;
    config.refresh_period = 1000;
    EXPECT_FALSE(DramSystem::refresh_fits(config));
    EXPECT_THROW(DramSystem{config}, std::invalid_argument);

    // A nonzero tREFI that a REF command (tRFC) still fills is refused
    // too, as are zero slots.
    config.refresh_period = config.t_rfc * config.refresh_slots;
    EXPECT_FALSE(DramSystem::refresh_fits(config));
    config.refresh_slots = 0;
    EXPECT_FALSE(DramSystem::refresh_fits(config));

    EXPECT_TRUE(DramSystem::refresh_fits(DramConfig{}));
    EXPECT_TRUE(DramSystem::refresh_fits(small_config()));
}

TEST(DramSystem, AccessLatencies)
{
    DramConfig config = small_config();
    DramSystem dram(config);
    // Choose a time clear of any REF window.
    const Tick t = config.t_rfc + us(1);
    const auto miss = dram.access(0x10000, t);
    EXPECT_FALSE(miss.row_hit);
    EXPECT_EQ(miss.latency, config.t_row_miss);
    const auto hit = dram.access(0x10040, t + miss.latency);
    EXPECT_TRUE(hit.row_hit);
    EXPECT_EQ(hit.latency, config.t_row_hit);
}

TEST(DramSystem, RefreshWindowStallsAccesses)
{
    DramConfig config = small_config();
    DramSystem dram(config);
    // An access arriving exactly at a REF command start waits out tRFC.
    const Tick ref_start = config.t_refi() * 3;
    const auto result = dram.access(0x20000, ref_start);
    EXPECT_EQ(result.latency, config.t_rfc + config.t_row_miss);
    EXPECT_EQ(dram.stats().refresh_stall, config.t_rfc);
}

TEST(DramSystem, RowToAddrRoundTrip)
{
    DramConfig config;  // full module
    DramSystem dram(config);
    for (std::uint32_t fb : {0u, 3u, 15u}) {
        for (std::uint32_t row : {0u, 77u, 32767u}) {
            const Addr pa = dram.row_to_addr(fb, row);
            const DramCoord coord = dram.address_map().decode(pa);
            EXPECT_EQ(coord.row, row);
            EXPECT_EQ(dram.address_map().flat_bank(coord), fb);
        }
    }
}

TEST(DramSystem, SelectiveRefreshProtectsVictim)
{
    DramConfig config = small_config();
    DramSystem dram(config);
    const AddressMap &map = dram.address_map();

    // Hammer rows 99 and 101 directly through the access path, with a
    // selective refresh of victim 100 at the halfway point.
    DramCoord low, high;
    low.row = 99;
    high.row = 101;
    const Addr a0 = map.encode(low);
    const Addr a1 = map.encode(high);

    Tick t = us(1);
    const std::uint64_t half = 70000;
    for (std::uint64_t i = 0; i < half; ++i) {
        t += dram.access(a0, t).latency;
        t += dram.access(a1, t).latency;
    }
    dram.refresh_row(0, 100, t);
    for (std::uint64_t i = 0; i < half; ++i) {
        t += dram.access(a0, t).latency;
        t += dram.access(a1, t).latency;
    }
    // 70K + 70K per side with a mid-point victim refresh: neither window
    // reaches 110K per side.
    for (const auto &flip : dram.flips())
        EXPECT_NE(flip.row, 100u);
    EXPECT_EQ(dram.stats().selective_refreshes, 1u);
}

TEST(DramSystem, UnprotectedHammerFlipsVictim)
{
    DramConfig config = small_config();
    DramSystem dram(config);
    const AddressMap &map = dram.address_map();
    DramCoord low, high;
    low.row = 99;
    high.row = 101;
    const Addr a0 = map.encode(low);
    const Addr a1 = map.encode(high);

    // The victim's first (partial) refresh window discards some early
    // accumulation, so allow up to two windows' worth of pairs.
    Tick t = us(1);
    for (std::uint64_t i = 0; i < 250000 && dram.flips().empty(); ++i) {
        t += dram.access(a0, t).latency;
        t += dram.access(a1, t).latency;
    }
    ASSERT_FALSE(dram.flips().empty());
    EXPECT_EQ(dram.flips()[0].row, 100u);
    // Time to flip at ~115.5 ns per pair should be ~13 ms — inside one
    // 64 ms refresh window.
    EXPECT_LT(dram.flips()[0].time, ms(64));
}

TEST(DramSystem, FlipsRefusedWithoutDisturbanceModel)
{
    // The hammer that flips row 100 above, on a device that skips the
    // physics: it keeps timing and row-buffer state, records nothing the
    // flip log could report, and refuses to report it as "no flips".
    DramConfig config = small_config();
    config.model_disturbance = false;
    DramSystem dram(config);
    const AddressMap &map = dram.address_map();
    DramCoord low, high;
    low.row = 99;
    high.row = 101;
    const Addr a0 = map.encode(low);
    const Addr a1 = map.encode(high);

    Tick t = us(1);
    for (std::uint64_t i = 0; i < 250000; ++i) {
        t += dram.access(a0, t).latency;
        t += dram.access(a1, t).latency;
    }
    EXPECT_THROW(dram.flips(), std::logic_error);
    EXPECT_EQ(dram.bank(0).activations(), 500000u);
    EXPECT_EQ(dram.disturbance(0).disturbance_of(100, t), 0.0);
    // Per-row thresholds stay pure, for the weakest-victim finders.
    EXPECT_EQ(dram.disturbance(0).threshold_of(100), config.flip_threshold);
}

TEST(DramSystem, DoubledRefreshRateStopsSlowHammer)
{
    // At a 32 ms refresh period the same pacing that flips under 64 ms
    // fails if it needs more than 32 ms to accumulate.
    DramConfig config = small_config();
    config.refresh_period = ms(32);
    DramSystem dram(config);
    const AddressMap &map = dram.address_map();
    DramCoord low, high;
    low.row = 99;
    high.row = 101;
    const Addr a0 = map.encode(low);
    const Addr a1 = map.encode(high);

    // Pace one pair every 400 ns => 110K pairs needs 44 ms > 32 ms.
    Tick t = us(1);
    for (std::uint64_t i = 0; i < 250000; ++i) {
        dram.access(a0, t);
        dram.access(a1, t + ns(200));
        t += ns(400);
    }
    EXPECT_TRUE(dram.flips().empty());
}

}  // namespace
}  // namespace anvil::dram
