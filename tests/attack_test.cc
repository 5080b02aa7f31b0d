/**
 * @file
 * Tests for the attack library: pagemap scanning, target discovery,
 * eviction-set construction, and the hammer kernels — including the
 * Table-1 calibration properties (accesses-to-flip and time-to-flip), the
 * Section-2.1 refresh-rate results, and the equivalence of the memoized
 * access programs the hammers run with plain access()/clflush() calls.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "anvil/anvil.hh"
#include "attack/hammer.hh"
#include "attack/memory_layout.hh"
#include "cache/access_program.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "mem/memory_system.hh"
#include "workload/profile.hh"
#include "workload/workload.hh"

namespace anvil::attack {
namespace {

/** Full-size machine (the Table 1 platform); built once per suite. */
class AttackTest : public ::testing::Test
{
  protected:
    static constexpr std::uint64_t kBufferBytes = 64ULL << 20;

    explicit AttackTest(Tick refresh_period = ms(64))
        : AttackTest(config_with_refresh(refresh_period))
    {
    }

    explicit AttackTest(const mem::SystemConfig &config)
    {
        machine_ = std::make_unique<mem::MemorySystem>(config);
        attacker_ = &machine_->create_process();
        buffer_ = attacker_->mmap(kBufferBytes);
        layout_ = std::make_unique<MemoryLayout>(
            *attacker_, machine_->dram().address_map(),
            machine_->hierarchy());
        layout_->scan(buffer_, kBufferBytes);
    }

    /**
     * Advances the clock to just after the victim row's next refresh so a
     * trial measures pure hammering time (the controlled-experiment
     * equivalent of the paper picking known-flippable modules).
     */
    void
    align_to_refresh(std::uint32_t victim_row)
    {
        const auto &schedule = machine_->dram().refresh_schedule();
        machine_->advance(
            schedule.next_refresh(victim_row, machine_->now()) + 10 -
            machine_->now());
    }

    /** First target whose victim row has the minimum flip threshold. */
    template <typename Targets>
    std::optional<typename Targets::value_type>
    weakest_target(const Targets &targets)
    {
        for (const auto &t : targets) {
            std::uint32_t row = 0;
            std::uint32_t bank = 0;
            if constexpr (std::is_same_v<typename Targets::value_type,
                                         DoubleSidedTarget>) {
                row = t.victim_row;
                bank = t.flat_bank;
            } else {
                row = t.aggressor_row + 1;
                bank = t.flat_bank;
            }
            const auto &model = machine_->dram().disturbance(bank);
            if (model.threshold_of(row) ==
                machine_->dram().config().flip_threshold) {
                return t;
            }
        }
        return std::nullopt;
    }

    static mem::SystemConfig
    config_with_refresh(Tick refresh_period)
    {
        mem::SystemConfig config;
        config.dram.refresh_period = refresh_period;
        return config;
    }

    std::unique_ptr<mem::MemorySystem> machine_;
    mem::AddressSpace *attacker_ = nullptr;
    Addr buffer_ = 0;
    std::unique_ptr<MemoryLayout> layout_;
};

TEST_F(AttackTest, ScanIndexesAllPages)
{
    EXPECT_EQ(layout_->pages_scanned(), kBufferBytes / mem::kPageBytes);
}

TEST_F(AttackTest, DoubleSidedTargetsSandwichRealVictims)
{
    const auto targets = layout_->find_double_sided_targets(32);
    ASSERT_FALSE(targets.empty());
    const auto &map = machine_->dram().address_map();
    for (const auto &t : targets) {
        const Addr pa_low = attacker_->translate(t.low_aggressor_va);
        const Addr pa_high = attacker_->translate(t.high_aggressor_va);
        const auto low = map.decode(pa_low);
        const auto high = map.decode(pa_high);
        EXPECT_EQ(map.flat_bank(low), t.flat_bank);
        EXPECT_EQ(map.flat_bank(high), t.flat_bank);
        EXPECT_EQ(low.row + 1, t.victim_row);
        EXPECT_EQ(high.row - 1, t.victim_row);
    }
}

TEST_F(AttackTest, SingleSidedTargetsShareBankWithDistantCloser)
{
    const auto targets = layout_->find_single_sided_targets(16, 64);
    ASSERT_FALSE(targets.empty());
    const auto &map = machine_->dram().address_map();
    for (const auto &t : targets) {
        const auto agg = map.decode(attacker_->translate(t.aggressor_va));
        const auto closer = map.decode(attacker_->translate(t.closer_va));
        EXPECT_EQ(map.flat_bank(agg), map.flat_bank(closer));
        EXPECT_GE(closer.row, agg.row + 64);
    }
}

TEST_F(AttackTest, EvictionSetSharesSetAndSlice)
{
    const auto targets = layout_->find_double_sided_targets(4);
    ASSERT_FALSE(targets.empty());
    const Addr target_va = targets[0].low_aggressor_va;
    const auto lines = layout_->build_eviction_set(target_va, 12);
    ASSERT_EQ(lines.size(), 12u);

    const auto &h = machine_->hierarchy();
    const Addr target_pa = attacker_->translate(target_va);
    std::set<Addr> distinct;
    for (const Addr va : lines) {
        const Addr pa = attacker_->translate(va);
        ASSERT_NE(pa, kInvalidAddr);
        EXPECT_EQ(h.llc_set(pa), h.llc_set(target_pa));
        EXPECT_EQ(h.llc_slice(pa), h.llc_slice(target_pa));
        EXPECT_NE(cache::line_of(pa), cache::line_of(target_pa));
        distinct.insert(cache::line_of(pa));
    }
    EXPECT_EQ(distinct.size(), 12u);
}

TEST_F(AttackTest, EvictionSetAvoidsTargetNeighbourhood)
{
    const auto targets = layout_->find_double_sided_targets(4);
    ASSERT_FALSE(targets.empty());
    const Addr target_va = targets[0].low_aggressor_va;
    const auto lines = layout_->build_eviction_set(target_va, 12);
    const auto &map = machine_->dram().address_map();
    const Addr target_pa = attacker_->translate(target_va);
    const auto target_coord = map.decode(target_pa);
    for (const Addr va : lines) {
        const auto coord = map.decode(attacker_->translate(va));
        if (map.flat_bank(coord) != map.flat_bank(target_coord))
            continue;
        const std::int64_t gap = static_cast<std::int64_t>(coord.row) -
                                 static_cast<std::int64_t>(target_coord.row);
        EXPECT_GT(std::abs(gap), 4);
    }
}

TEST_F(AttackTest, ClflushDoubleSidedMatchesTable1)
{
    // Table 1: double-sided with CLFLUSH — 220 K row accesses, first flip
    // at 15 ms.
    const auto target =
        weakest_target(layout_->find_double_sided_targets(64));
    ASSERT_TRUE(target.has_value());
    align_to_refresh(target->victim_row);

    ClflushDoubleSided hammer(*machine_, attacker_->pid(), *target);
    const HammerResult result = hammer.run(ms(70));
    ASSERT_TRUE(result.flipped);
    EXPECT_NEAR(static_cast<double>(result.aggressor_accesses), 220000.0,
                6000.0);
    EXPECT_GT(to_ms(result.duration), 13.0);
    EXPECT_LT(to_ms(result.duration), 19.0);
    EXPECT_EQ(result.flips[0].row, target->victim_row);
}

TEST_F(AttackTest, ClflushSingleSidedMatchesTable1)
{
    // Table 1: single-sided with CLFLUSH — 400 K accesses, ~58 ms.
    const auto targets = layout_->find_single_sided_targets(64, 64);
    const auto target = weakest_target(targets);
    ASSERT_TRUE(target.has_value());
    align_to_refresh(target->aggressor_row + 1);

    ClflushSingleSided hammer(*machine_, attacker_->pid(), *target);
    const HammerResult result = hammer.run(ms(70));
    ASSERT_TRUE(result.flipped);
    EXPECT_NEAR(static_cast<double>(result.aggressor_accesses), 400000.0,
                12000.0);
    EXPECT_GT(to_ms(result.duration), 42.0);
    EXPECT_LT(to_ms(result.duration), 64.0);
}

TEST_F(AttackTest, ClflushFreeDoubleSidedMatchesTable1)
{
    // Table 1: double-sided WITHOUT CLFLUSH — 220 K accesses, ~45 ms.
    const auto targets = layout_->find_double_sided_targets(256);
    std::optional<DoubleSidedTarget> chosen;
    for (const auto &t : targets) {
        if (!ClflushFreeDoubleSided::slice_compatible(*machine_,
                                                      attacker_->pid(), t))
            continue;
        const auto &model = machine_->dram().disturbance(t.flat_bank);
        if (model.threshold_of(t.victim_row) ==
            machine_->dram().config().flip_threshold) {
            chosen = t;
            break;
        }
    }
    ASSERT_TRUE(chosen.has_value())
        << "no slice-compatible weak target in buffer";
    align_to_refresh(chosen->victim_row);

    ClflushFreeDoubleSided hammer(*machine_, attacker_->pid(), *chosen,
                                  *layout_);
    const HammerResult result = hammer.run(ms(70));
    ASSERT_TRUE(result.flipped);
    EXPECT_NEAR(static_cast<double>(result.aggressor_accesses), 220000.0,
                8000.0);
    EXPECT_GT(to_ms(result.duration), 35.0);
    EXPECT_LT(to_ms(result.duration), 60.0);
}

TEST_F(AttackTest, ClflushFreePatternMissesOnlyAggressors)
{
    // Property behind Figure 1b: in steady state each iteration's only
    // LLC misses are the two aggressor rows.
    const auto targets = layout_->find_double_sided_targets(256);
    std::optional<DoubleSidedTarget> chosen;
    for (const auto &t : targets) {
        if (ClflushFreeDoubleSided::slice_compatible(*machine_,
                                                     attacker_->pid(), t)) {
            chosen = t;
            break;
        }
    }
    ASSERT_TRUE(chosen.has_value());
    ClflushFreeDoubleSided hammer(*machine_, attacker_->pid(), *chosen,
                                  *layout_);
    for (int i = 0; i < 4; ++i)
        hammer.step();  // warm up

    const auto before = machine_->hierarchy().llc_stats();
    const std::uint64_t acts_before =
        machine_->dram().bank(chosen->flat_bank).activations();
    const int iterations = 200;
    for (int i = 0; i < iterations; ++i)
        hammer.step();
    const auto after = machine_->hierarchy().llc_stats();

    // Exactly 2 misses per iteration...
    EXPECT_EQ(after.misses - before.misses,
              static_cast<std::uint64_t>(2 * iterations));
    // ...and every miss is an aggressor-row activation in the target bank.
    EXPECT_EQ(machine_->dram().bank(chosen->flat_bank).activations() -
                  acts_before,
              static_cast<std::uint64_t>(2 * iterations));
}

TEST_F(AttackTest, ClflushFreeEvictionSetTranslatesWithoutMisses)
{
    // The two aggressors plus ways - 1 = 11 conflicts are the paper's
    // 13-line set. All 13 lie in the one THP-backed buffer, so after the
    // first iteration every translation is a hit of the last-region memo.
    const auto targets = layout_->find_double_sided_targets(256);
    std::optional<DoubleSidedTarget> chosen;
    for (const auto &t : targets) {
        if (ClflushFreeDoubleSided::slice_compatible(*machine_,
                                                     attacker_->pid(), t)) {
            chosen = t;
            break;
        }
    }
    ASSERT_TRUE(chosen.has_value());
    ClflushFreeDoubleSided hammer(*machine_, attacker_->pid(), *chosen,
                                  *layout_);
    hammer.step();
    const std::uint64_t misses = attacker_->tlb_misses();
    const std::uint64_t hits = attacker_->tlb_hits();
    for (int i = 0; i < 100; ++i)
        hammer.step();
    EXPECT_EQ(attacker_->tlb_misses(), misses);
    EXPECT_GE(attacker_->tlb_hits() - hits, 100u * 13u);
}

TEST_F(AttackTest, ClflushFreeThroughputSupports190KHammersPerRefresh)
{
    // Section 2.2: "This allows up to 190K double-sided hammers with-in a
    // 64ms refresh period." Our pattern must sustain at least ~150 K.
    const auto targets = layout_->find_double_sided_targets(256);
    std::optional<DoubleSidedTarget> chosen;
    for (const auto &t : targets) {
        if (ClflushFreeDoubleSided::slice_compatible(*machine_,
                                                     attacker_->pid(), t)) {
            chosen = t;
            break;
        }
    }
    ASSERT_TRUE(chosen.has_value());
    ClflushFreeDoubleSided hammer(*machine_, attacker_->pid(), *chosen,
                                  *layout_);
    for (int i = 0; i < 4; ++i)
        hammer.step();
    const Tick start = machine_->now();
    const int iterations = 5000;
    for (int i = 0; i < iterations; ++i)
        hammer.step();
    const double ns_per_iteration =
        to_ns(machine_->now() - start) / iterations;
    const double hammers_per_refresh = 64e6 / ns_per_iteration;
    EXPECT_GT(hammers_per_refresh, 150000.0);
    EXPECT_LT(hammers_per_refresh, 220000.0);
}

TEST_F(AttackTest, SliceIncompatibleTargetThrows)
{
    const auto targets = layout_->find_double_sided_targets(256);
    for (const auto &t : targets) {
        if (!ClflushFreeDoubleSided::slice_compatible(*machine_,
                                                      attacker_->pid(), t)) {
            EXPECT_THROW(ClflushFreeDoubleSided(*machine_, attacker_->pid(),
                                                t, *layout_),
                         std::runtime_error);
            return;
        }
    }
    GTEST_SKIP() << "every target happened to be compatible";
}

TEST_F(AttackTest, HalfDoubleTargetsOwnTheFullSandwich)
{
    const auto targets = layout_->find_half_double_targets(32);
    ASSERT_FALSE(targets.empty());
    const auto &map = machine_->dram().address_map();
    for (const auto &t : targets) {
        const auto far_low = map.decode(attacker_->translate(t.far_low_va));
        const auto near_low =
            map.decode(attacker_->translate(t.near_low_va));
        const auto near_high =
            map.decode(attacker_->translate(t.near_high_va));
        const auto far_high =
            map.decode(attacker_->translate(t.far_high_va));
        EXPECT_EQ(map.flat_bank(far_low), t.flat_bank);
        EXPECT_EQ(map.flat_bank(near_low), t.flat_bank);
        EXPECT_EQ(map.flat_bank(near_high), t.flat_bank);
        EXPECT_EQ(map.flat_bank(far_high), t.flat_bank);
        EXPECT_EQ(far_low.row + 2, t.victim_row);
        EXPECT_EQ(near_low.row + 1, t.victim_row);
        EXPECT_EQ(near_high.row - 1, t.victim_row);
        EXPECT_EQ(far_high.row - 2, t.victim_row);
    }
}

TEST_F(AttackTest, HalfDoubleIsInertWithoutDistanceTwoCoupling)
{
    // On the classic module (second_neighbor_weight = 0) the far
    // aggressors contribute nothing to the sandwiched victim; a run
    // well past the double-sided time-to-flip leaves memory intact.
    const auto targets = layout_->find_half_double_targets(16);
    ASSERT_FALSE(targets.empty());
    ClflushHalfDouble hammer(*machine_, attacker_->pid(), targets[0]);
    const HammerResult result = hammer.run(ms(30));
    EXPECT_FALSE(result.flipped);
    EXPECT_TRUE(machine_->dram().flips().empty());
}

TEST_F(AttackTest, HalfDoubleRejectsAZeroNearTouchInterval)
{
    const auto targets = layout_->find_half_double_targets(16);
    ASSERT_FALSE(targets.empty());
    EXPECT_THROW(
        ClflushHalfDouble(*machine_, attacker_->pid(), targets[0], 0),
        std::runtime_error);
}

TEST_F(AttackTest, ThrashRowsAreDistinctAndSpaced)
{
    const auto rows = layout_->find_thrash_rows(512);
    ASSERT_GE(rows.size(), 64u);
    const auto &map = machine_->dram().address_map();
    std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
    std::map<std::uint32_t, std::vector<std::uint32_t>> by_bank;
    for (const Addr va : rows) {
        const auto coord = map.decode(attacker_->translate(va));
        EXPECT_TRUE(seen.insert({map.flat_bank(coord), coord.row}).second);
        by_bank[map.flat_bank(coord)].push_back(coord.row);
    }
    // Same-bank picks keep the minimum gap, so round-robin traffic never
    // concentrates disturbance on any one victim.
    for (auto &[bank, bank_rows] : by_bank) {
        std::sort(bank_rows.begin(), bank_rows.end());
        for (std::size_t i = 1; i < bank_rows.size(); ++i)
            EXPECT_GE(bank_rows[i] - bank_rows[i - 1], 3u) << bank;
    }
}

TEST_F(AttackTest, TrackerThrashCyclesDistinctRowsWithoutFlipping)
{
    const auto rows = layout_->find_thrash_rows(256);
    ASSERT_FALSE(rows.empty());
    TrackerThrash hammer(*machine_, attacker_->pid(), rows);
    EXPECT_EQ(hammer.working_set_rows(), rows.size());
    const std::uint64_t misses_before =
        machine_->dram().stats().row_misses;
    for (std::size_t i = 0; i < 4 * rows.size(); ++i)
        hammer.step();
    // Round-robin over distinct (bank, row) locations: every access
    // opens a fresh row (maximal tracker pressure)...
    EXPECT_EQ(machine_->dram().stats().row_misses - misses_before,
              4 * rows.size());
    // ...while no victim accumulates disturbance worth mentioning.
    EXPECT_TRUE(machine_->dram().flips().empty());
}

TEST_F(AttackTest, TrackerThrashRejectsAnEmptyWorkingSet)
{
    EXPECT_THROW(TrackerThrash(*machine_, attacker_->pid(), {}),
                 std::runtime_error);
}

/** Next-generation module: lower threshold plus distance-2 coupling. */
class HalfDoubleAttackTest : public AttackTest
{
  protected:
    HalfDoubleAttackTest() : AttackTest(next_gen_config()) {}

    static mem::SystemConfig
    next_gen_config()
    {
        mem::SystemConfig config;
        config.dram.flip_threshold = 200000;
        config.dram.second_neighbor_weight = 0.5;
        return config;
    }
};

TEST_F(HalfDoubleAttackTest, FlipsTheSandwichedVictim)
{
    // The victim accrues w2 from BOTH far aggressors (1.0 per iteration)
    // while the distance-3 collateral rows see only one aggressor each
    // (0.5 per iteration), so a weakest-grade victim always flips first.
    std::optional<HalfDoubleTarget> chosen;
    for (const auto &t : layout_->find_half_double_targets(1024)) {
        if (machine_->dram().disturbance(t.flat_bank).threshold_of(
                t.victim_row) ==
            machine_->dram().config().flip_threshold) {
            chosen = t;
            break;
        }
    }
    ASSERT_TRUE(chosen.has_value());
    align_to_refresh(chosen->victim_row);

    ClflushHalfDouble hammer(*machine_, attacker_->pid(), *chosen);
    const HammerResult result = hammer.run(ms(192));
    ASSERT_TRUE(result.flipped);
    EXPECT_EQ(result.flips[0].row, chosen->victim_row);
    // Pure distance-2 coupling at weight 0.5: the two aggressors must
    // jointly deliver ~2x the threshold in far accesses.
    EXPECT_GT(result.aggressor_accesses, 300000u);
    // The kept-charged near rows never flip.
    for (const auto &flip : machine_->dram().flips()) {
        EXPECT_NE(flip.row, chosen->victim_row - 1);
        EXPECT_NE(flip.row, chosen->victim_row + 1);
    }
}

/** Section 2.1: double refresh (32 ms) does NOT stop the CLFLUSH attack. */
class Attack32msTest : public AttackTest
{
  protected:
    Attack32msTest() : AttackTest(ms(32)) {}
};

TEST_F(Attack32msTest, ClflushDoubleSidedStillFlipsAt32ms)
{
    const auto target =
        weakest_target(layout_->find_double_sided_targets(64));
    ASSERT_TRUE(target.has_value());
    align_to_refresh(target->victim_row);
    ClflushDoubleSided hammer(*machine_, attacker_->pid(), *target);
    const HammerResult result = hammer.run(ms(40));
    EXPECT_TRUE(result.flipped);
    EXPECT_LT(to_ms(result.duration), 32.0);
}

TEST_F(Attack32msTest, SingleSidedIsDefeatedBy32ms)
{
    const auto target =
        weakest_target(layout_->find_single_sided_targets(64, 64));
    ASSERT_TRUE(target.has_value());
    align_to_refresh(target->aggressor_row + 1);
    ClflushSingleSided hammer(*machine_, attacker_->pid(), *target);
    // Two full refresh periods of trying.
    const HammerResult result = hammer.run(ms(64));
    EXPECT_FALSE(result.flipped);
}

TEST_F(Attack32msTest, ClflushFreeIsDefeatedBy32ms)
{
    // Table 1 discussion: "we are unable to yet rowhammer memory in less
    // than 32ms without use of the CLFLUSH instruction."
    const auto targets = layout_->find_double_sided_targets(256);
    std::optional<DoubleSidedTarget> chosen;
    for (const auto &t : targets) {
        if (!ClflushFreeDoubleSided::slice_compatible(*machine_,
                                                      attacker_->pid(), t))
            continue;
        const auto &model = machine_->dram().disturbance(t.flat_bank);
        if (model.threshold_of(t.victim_row) ==
            machine_->dram().config().flip_threshold) {
            chosen = t;
            break;
        }
    }
    ASSERT_TRUE(chosen.has_value());
    align_to_refresh(chosen->victim_row);
    ClflushFreeDoubleSided hammer(*machine_, attacker_->pid(), *chosen,
                                  *layout_);
    const HammerResult result = hammer.run(ms(64));
    EXPECT_FALSE(result.flipped);
}

/** Section 5.2.1: flips remain possible even at a 16 ms refresh period. */
class Attack16msTest : public AttackTest
{
  protected:
    Attack16msTest() : AttackTest(ms(16)) {}
};

TEST_F(Attack16msTest, ClflushDoubleSidedStillFlipsAt16ms)
{
    const auto target =
        weakest_target(layout_->find_double_sided_targets(64));
    ASSERT_TRUE(target.has_value());
    align_to_refresh(target->victim_row);
    ClflushDoubleSided hammer(*machine_, attacker_->pid(), *target);
    const HammerResult result = hammer.run(ms(40));
    EXPECT_TRUE(result.flipped);
    EXPECT_LT(to_ms(result.duration), 16.0);
}

// ---------------------------------------------------------------------------
// The flat row index against a std::map reference
// ---------------------------------------------------------------------------

/** (flat bank, row) -> the first VA scanned into that row. */
using RowMap = std::map<std::pair<std::uint32_t, std::uint32_t>, Addr>;

void
reference_scan(RowMap &rows, const mem::AddressSpace &space,
               const dram::AddressMap &map, Addr base, std::uint64_t bytes)
{
    for (Addr va = base; va < base + bytes; va += mem::kPageBytes) {
        const Addr frame = space.pagemap(va);
        if (frame == kInvalidAddr)
            continue;
        const dram::DramCoord coord = map.decode(frame);
        rows.emplace(std::make_pair(map.flat_bank(coord), coord.row), va);
    }
}

using Key = std::pair<std::uint32_t, std::uint32_t>;

std::vector<std::tuple<Addr, Addr, std::uint32_t, std::uint32_t>>
reference_double_sided(const RowMap &rows)
{
    std::vector<std::tuple<Addr, Addr, std::uint32_t, std::uint32_t>> out;
    for (const auto &[key, va] : rows) {
        const auto high = rows.find(Key{key.first, key.second + 2});
        if (high != rows.end())
            out.emplace_back(va, high->second, key.first, key.second + 1);
    }
    return out;
}

std::vector<std::tuple<Addr, Addr, std::uint32_t, std::uint32_t>>
reference_single_sided(const RowMap &rows, std::uint32_t gap)
{
    std::vector<std::tuple<Addr, Addr, std::uint32_t, std::uint32_t>> out;
    for (const auto &[key, va] : rows) {
        const auto it = rows.lower_bound(Key{key.first, key.second + gap});
        if (it != rows.end() && it->first.first == key.first)
            out.emplace_back(va, it->second, key.first, key.second);
    }
    return out;
}

std::vector<std::tuple<Addr, Addr, Addr, Addr, std::uint32_t, std::uint32_t>>
reference_half_double(const RowMap &rows)
{
    std::vector<
        std::tuple<Addr, Addr, Addr, Addr, std::uint32_t, std::uint32_t>>
        out;
    for (const auto &[key, va] : rows) {
        const auto [bank, row] = key;
        const auto a = rows.find(Key{bank, row + 1});
        const auto b = rows.find(Key{bank, row + 3});
        const auto c = rows.find(Key{bank, row + 4});
        if (a != rows.end() && b != rows.end() && c != rows.end()) {
            out.emplace_back(va, a->second, b->second, c->second, bank,
                             row + 2);
        }
    }
    return out;
}

std::vector<Addr>
reference_thrash_rows(const RowMap &rows, std::uint32_t gap)
{
    std::vector<Addr> out;
    const Key *last = nullptr;
    for (const auto &[key, va] : rows) {
        if (last != nullptr && key.first == last->first &&
            key.second < last->second + gap)
            continue;
        out.push_back(va);
        last = &key;
    }
    return out;
}

class RowIndexEquivalence : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RowIndexEquivalence, EveryFinderMatchesTheMapReference)
{
    mem::SystemConfig config;
    config.vm_seed = GetParam();
    mem::MemorySystem machine(config);
    mem::AddressSpace &proc = machine.create_process();
    const dram::AddressMap &map = machine.dram().address_map();
    constexpr std::uint64_t kHuge = 16ULL << 20;
    constexpr std::uint64_t kSmall = 1ULL << 20;
    const Addr thp = proc.mmap(kHuge);
    const Addr small = proc.mmap(kSmall);  // scattered 4 KB frames
    // A second VA range over the same frames: every key it scans was
    // (or will be) scanned through `thp` too, at a different VA.
    const Addr view = proc.mmap_shared(proc, thp, kHuge);

    // Each scan below revisits keys of an earlier one; the first VA
    // scanned into a row must win. The odd page offset makes the first
    // scan start mid-row.
    const Addr offset = (1 + GetParam() % 7) * mem::kPageBytes;
    const std::vector<std::pair<Addr, std::uint64_t>> scans = {
        {thp + offset, kHuge / 2}, {view, kHuge}, {small, kSmall},
        {thp, kHuge}, {view, kHuge / 4}};
    MemoryLayout layout(proc, map, machine.hierarchy());
    RowMap reference;
    for (const auto &[base, bytes] : scans) {
        layout.scan(base, bytes);
        reference_scan(reference, proc, map, base, bytes);
    }

    // The whole index, in order: gap 0 never skips a row.
    const std::vector<Addr> all = layout.find_thrash_rows(SIZE_MAX, 0);
    EXPECT_EQ(all, reference_thrash_rows(reference, 0));
    ASSERT_EQ(all.size(), reference.size());
    const auto in = [](Addr va, Addr base, std::uint64_t bytes) {
        return va >= base && va - base < bytes;
    };
    EXPECT_TRUE(std::any_of(all.begin(), all.end(), [&](Addr va) {
        return in(va, thp, kHuge);
    }));
    EXPECT_TRUE(std::any_of(all.begin(), all.end(), [&](Addr va) {
        return in(va, view, kHuge);
    }));
    EXPECT_TRUE(std::any_of(all.begin(), all.end(), [&](Addr va) {
        return in(va, small, kSmall);
    }));

    std::vector<std::tuple<Addr, Addr, std::uint32_t, std::uint32_t>>
        doubles;
    for (const auto &t : layout.find_double_sided_targets(SIZE_MAX)) {
        doubles.emplace_back(t.low_aggressor_va, t.high_aggressor_va,
                             t.flat_bank, t.victim_row);
    }
    EXPECT_FALSE(doubles.empty());
    EXPECT_EQ(doubles, reference_double_sided(reference));
    // A cap keeps a prefix of the uncapped answer.
    const auto capped = layout.find_double_sided_targets(3);
    ASSERT_EQ(capped.size(), std::min<std::size_t>(3, doubles.size()));
    for (std::size_t i = 0; i < capped.size(); ++i)
        EXPECT_EQ(capped[i].low_aggressor_va, std::get<0>(doubles[i]));

    for (const std::uint32_t gap : {1u, 3u, 64u, 100000u}) {
        std::vector<std::tuple<Addr, Addr, std::uint32_t, std::uint32_t>>
            singles;
        for (const auto &t :
             layout.find_single_sided_targets(SIZE_MAX, gap)) {
            singles.emplace_back(t.aggressor_va, t.closer_va, t.flat_bank,
                                 t.aggressor_row);
        }
        EXPECT_EQ(singles, reference_single_sided(reference, gap)) << gap;
        EXPECT_EQ(layout.find_thrash_rows(SIZE_MAX, gap),
                  reference_thrash_rows(reference, gap))
            << gap;
    }

    std::vector<
        std::tuple<Addr, Addr, Addr, Addr, std::uint32_t, std::uint32_t>>
        half;
    for (const auto &t : layout.find_half_double_targets(SIZE_MAX)) {
        half.emplace_back(t.far_low_va, t.near_low_va, t.near_high_va,
                          t.far_high_va, t.flat_bank, t.victim_row);
    }
    EXPECT_FALSE(half.empty());
    EXPECT_EQ(half, reference_half_double(reference));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowIndexEquivalence,
                         ::testing::Values(1ULL, 7ULL, 0xF4A3E5EEDULL,
                                           0xBADC0FFEEULL));

// ---------------------------------------------------------------------------
// Eviction sets against a line-by-line reference
// ---------------------------------------------------------------------------

/** The mapped pages of [base, base + bytes), as scan() indexes them. */
std::vector<Addr>
mapped_pages(const mem::AddressSpace &space, Addr base, std::uint64_t bytes)
{
    std::vector<Addr> pages;
    for (Addr page = base; page < base + bytes; page += mem::kPageBytes) {
        if (space.pagemap(page) != kInvalidAddr)
            pages.push_back(page);
    }
    return pages;
}

/** build_eviction_set visiting all 64 lines of each page in @p pages. */
std::vector<Addr>
reference_eviction_set(const mem::MemorySystem &machine,
                       const mem::AddressSpace &space,
                       const std::vector<Addr> &pages, Addr target_va,
                       std::size_t n)
{
    const cache::CacheHierarchy &h = machine.hierarchy();
    const dram::AddressMap &map = machine.dram().address_map();
    const Addr target_pa = space.translate(target_va);
    const dram::DramCoord target = map.decode(target_pa);
    std::vector<Addr> out;
    for (const Addr page : pages) {
        if (out.size() >= n)
            break;
        const Addr frame = space.pagemap(page);
        for (Addr off = 0; off < mem::kPageBytes && out.size() < n;
             off += cache::kLineBytes) {
            const Addr pa = frame + off;
            if (cache::line_of(pa) == cache::line_of(target_pa) ||
                h.llc_set(pa) != h.llc_set(target_pa) ||
                h.llc_slice(pa) != h.llc_slice(target_pa))
                continue;
            const dram::DramCoord coord = map.decode(pa);
            if (map.flat_bank(coord) == map.flat_bank(target) &&
                coord.row + 4 >= target.row && coord.row <= target.row + 4)
                continue;
            out.push_back(page + off);
        }
    }
    return out;
}

/** (LLC slices, sets per slice) */
class EvictionSetGeometry
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>>
{
};

TEST_P(EvictionSetGeometry, MatchesTheLineByLineReference)
{
    mem::SystemConfig config;
    config.cache.llc_slices = GetParam().first;
    config.cache.llc_sets_per_slice = GetParam().second;
    mem::MemorySystem machine(config);
    mem::AddressSpace &proc = machine.create_process();
    constexpr std::uint64_t kBytes = 16ULL << 20;
    const Addr buffer = proc.mmap(kBytes);
    MemoryLayout layout(proc, machine.dram().address_map(),
                        machine.hierarchy());
    layout.scan(buffer, kBytes);

    const std::vector<Addr> pages = mapped_pages(proc, buffer, kBytes);
    Rng rng(GetParam().second);
    for (int trial = 0; trial < 16; ++trial) {
        const Addr target = buffer + rng.next_below(kBytes / 64) * 64;
        const std::size_t n = 1 + trial % 13;
        const std::vector<Addr> want =
            reference_eviction_set(machine, proc, pages, target, n);
        ASSERT_EQ(want.size(), n);
        EXPECT_EQ(layout.build_eviction_set(target, n), want) << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, EvictionSetGeometry,
    ::testing::Values(std::make_pair(2u, 2048u), std::make_pair(1u, 16u),
                      std::make_pair(4u, 32u), std::make_pair(8u, 64u)));

TEST(EvictionSetScanOrder, WalksEveryScanInCallOrderSkippingUnmappedPages)
{
    // Two scans, the later one at lower addresses and across a region
    // unmapped before it: conflicts come from the first scan's pages,
    // then the second's, never from the hole.
    mem::MemorySystem machine(mem::SystemConfig{});
    mem::AddressSpace &proc = machine.create_process();
    constexpr std::uint64_t kRegion = 4ULL << 20;
    const Addr low = proc.mmap(kRegion);
    const Addr hole = proc.mmap(kRegion);
    const Addr high = proc.mmap(kRegion);
    proc.munmap(hole, kRegion);
    constexpr std::uint64_t kFirst = 1ULL << 20;
    const std::uint64_t second = high + kRegion - low;
    MemoryLayout layout(proc, machine.dram().address_map(),
                        machine.hierarchy());
    layout.scan(high, kFirst);
    layout.scan(low, second);

    std::vector<Addr> pages = mapped_pages(proc, high, kFirst);
    const std::vector<Addr> later = mapped_pages(proc, low, second);
    pages.insert(pages.end(), later.begin(), later.end());
    ASSERT_EQ(proc.pagemap(hole), kInvalidAddr);
    EXPECT_LE(later.size(), (second - kRegion) / mem::kPageBytes);
    EXPECT_EQ(layout.pages_scanned(), pages.size());

    Rng rng(0x5CA7ULL);
    bool crossed = false;
    for (int trial = 0; trial < 8; ++trial) {
        const Addr target = high + rng.next_below(kFirst / 64) * 64;
        const std::size_t n = 6 + trial;
        const std::vector<Addr> want =
            reference_eviction_set(machine, proc, pages, target, n);
        ASSERT_EQ(want.size(), n);
        crossed = crossed || want.back() < high;
        EXPECT_EQ(layout.build_eviction_set(target, n), want) << trial;
    }
    EXPECT_TRUE(crossed);  // some sets needed the second scan's pages
}

// ---------------------------------------------------------------------
// Access programs: a hammer's memoized iteration must leave every
// observable of the machine exactly as the same ops performed one by one.
// ---------------------------------------------------------------------

using Op = cache::AccessProgram::Op;

/** Hammer patterns that run as access programs. */
enum class Pattern {
    kClflushLoads,
    kClflushStores,
    kSingleSided,
    kClflushFree,
    kHalfDouble,
};

const char *
to_string(Pattern p)
{
    switch (p) {
      case Pattern::kClflushLoads: return "clflush_loads";
      case Pattern::kClflushStores: return "clflush_stores";
      case Pattern::kSingleSided: return "single_sided";
      case Pattern::kClflushFree: return "clflush_free";
      case Pattern::kHalfDouble: return "half_double";
    }
    return "?";
}

/// Near-row touch interval of the half-double cases: short, so both of
/// its programs run many times.
constexpr std::uint64_t kNearTouchInterval = 7;

/**
 * A machine with a PMU and an ANVIL detector whose windows are short
 * enough (50 us, 100-miss trigger, ~20 samples per window) that alarms,
 * sampling PMIs, detections and selective refreshes land in the middle
 * of hammer iterations. The flip threshold is low enough for the
 * CLFLUSH hammers to flip rows within a few thousand iterations, and
 * distance-2 coupling is on so half-double disturbs its victim. Every
 * access is logged.
 */
struct Rig {
    static constexpr std::uint64_t kBufferBytes = 64ULL << 20;

    explicit Rig(cache::ReplPolicy llc_policy)
    {
        mem::SystemConfig config;
        config.cache.llc_policy = llc_policy;
        // Tree-PLRU needs 2^k ways; fig1_pattern's ablation uses 16 too.
        if (llc_policy == cache::ReplPolicy::kTreePlru)
            config.cache.llc_ways = 16;
        config.dram.flip_threshold = 600;
        config.dram.second_neighbor_weight = 0.5;
        machine = std::make_unique<mem::MemorySystem>(config);
        detector::AnvilConfig fast = detector::AnvilConfig::baseline();
        fast.tc = us(50);
        fast.ts = us(50);
        fast.llc_miss_threshold = 100;
        fast.samples_per_sec = 400000;
        anvil = std::make_unique<detector::Anvil>(*machine, machine->pmu(),
                                                  fast);
        attacker = &machine->create_process();
        buffer = attacker->mmap(kBufferBytes);
        layout = std::make_unique<MemoryLayout>(
            *attacker, machine->dram().address_map(), machine->hierarchy());
        layout->scan(buffer, kBufferBytes);
        machine->add_observer(
            [this](const mem::AccessInfo &info) { log.push_back(info); });
    }

    /** Performs @p ops one by one through access() and clflush(). */
    void
    perform(Pid pid, const std::vector<Op> &ops)
    {
        for (const Op &op : ops) {
            if (op.clflush)
                machine->clflush(pid, op.addr);
            else
                machine->access(pid, op.addr, op.type);
        }
    }

    std::unique_ptr<mem::MemorySystem> machine;
    std::unique_ptr<detector::Anvil> anvil;
    mem::AddressSpace *attacker = nullptr;
    Addr buffer = 0;
    std::unique_ptr<MemoryLayout> layout;
    std::vector<mem::AccessInfo> log;
};

/** The first double-sided target whose aggressors can share an LLC set. */
DoubleSidedTarget
shared_set_target(const Rig &rig)
{
    for (const DoubleSidedTarget &t :
         rig.layout->find_double_sided_targets(256)) {
        if (ClflushFreeDoubleSided::slice_compatible(
                *rig.machine, rig.attacker->pid(), t))
            return t;
    }
    ADD_FAILURE() << "no slice-compatible target";
    return {};
}

/**
 * @p pattern's hammer on @p rig, and the ops of its iterations written
 * out by hand: iteration i (from 1) performs ops(i).
 */
struct HammerUnderTest {
    std::unique_ptr<Hammer> hammer;
    std::function<std::vector<Op>(std::uint64_t)> ops;
};

HammerUnderTest
make_hammer(Rig &rig, Pattern pattern)
{
    mem::MemorySystem &m = *rig.machine;
    const Pid pid = rig.attacker->pid();
    const auto load = [](Addr va) { return Op{va, AccessType::kLoad, false}; };
    const auto flush = [](Addr va) { return Op{va, AccessType::kLoad, true}; };
    HammerUnderTest h;
    switch (pattern) {
      case Pattern::kClflushLoads:
      case Pattern::kClflushStores: {
          const DoubleSidedTarget t = shared_set_target(rig);
          const AccessType type = pattern == Pattern::kClflushStores
                                      ? AccessType::kStore
                                      : AccessType::kLoad;
          h.hammer = std::make_unique<ClflushDoubleSided>(m, pid, t, type);
          const std::vector<Op> ops = {
              {t.low_aggressor_va, type, false},
              {t.high_aggressor_va, type, false},
              flush(t.low_aggressor_va), flush(t.high_aggressor_va)};
          h.ops = [ops](std::uint64_t) { return ops; };
          break;
      }
      case Pattern::kSingleSided: {
          const SingleSidedTarget t =
              rig.layout->find_single_sided_targets(16, 64).at(0);
          h.hammer = std::make_unique<ClflushSingleSided>(m, pid, t);
          const std::vector<Op> ops = {load(t.aggressor_va),
                                       load(t.closer_va),
                                       flush(t.aggressor_va),
                                       flush(t.closer_va)};
          h.ops = [ops](std::uint64_t) { return ops; };
          break;
      }
      case Pattern::kClflushFree: {
          auto evicting = std::make_unique<ClflushFreeDoubleSided>(
              m, pid, shared_set_target(rig), *rig.layout);
          std::vector<Op> ops;
          for (const Addr aggressor : {evicting->a0(), evicting->a1()}) {
              ops.push_back(load(aggressor));
              for (const Addr t : evicting->touch_set())
                  ops.push_back(load(t));
          }
          h.hammer = std::move(evicting);
          h.ops = [ops](std::uint64_t) { return ops; };
          break;
      }
      case Pattern::kHalfDouble: {
          const HalfDoubleTarget t =
              rig.layout->find_half_double_targets(1).at(0);
          h.hammer = std::make_unique<ClflushHalfDouble>(m, pid, t,
                                                         kNearTouchInterval);
          const std::vector<Op> far = {load(t.far_low_va),
                                       load(t.far_high_va),
                                       flush(t.far_low_va),
                                       flush(t.far_high_va)};
          std::vector<Op> far_near = far;
          for (const Op &op :
               {load(t.near_low_va), load(t.near_high_va),
                flush(t.near_low_va), flush(t.near_high_va)})
              far_near.push_back(op);
          h.ops = [far, far_near](std::uint64_t i) {
              return i % kNearTouchInterval == 0 ? far_near : far;
          };
          break;
      }
    }
    return h;
}

bool
same(const mem::AccessInfo &a, const mem::AccessInfo &b)
{
    return std::tie(a.pid, a.va, a.pa, a.type, a.source, a.latency,
                    a.llc_miss, a.complete_time) ==
           std::tie(b.pid, b.va, b.pa, b.type, b.source, b.latency,
                    b.llc_miss, b.complete_time);
}

bool
same(const cache::CacheStats &a, const cache::CacheStats &b)
{
    return std::tie(a.accesses, a.hits, a.misses, a.fills, a.evictions,
                    a.invalidations) ==
           std::tie(b.accesses, b.hits, b.misses, b.fills, b.evictions,
                    b.invalidations);
}

/**
 * Expects @p a and @p b, driven by the same sequence of ops, to agree on
 * everything observable: the access stream, every cache level's counters
 * and the contents of every set the attacker's lines map to, DRAM
 * counters and flips, the clock, every process's access and translation
 * counts, and ANVIL's statistics and detections.
 */
void
expect_same_machine(const Rig &a, const Rig &b)
{
    ASSERT_EQ(a.log.size(), b.log.size());
    for (std::size_t i = 0; i < a.log.size(); ++i)
        ASSERT_TRUE(same(a.log[i], b.log[i])) << "access " << i;

    const cache::CacheHierarchy &ha = a.machine->hierarchy();
    const cache::CacheHierarchy &hb = b.machine->hierarchy();
    EXPECT_TRUE(same(ha.l1().stats(), hb.l1().stats()));
    EXPECT_TRUE(same(ha.l2().stats(), hb.l2().stats()));
    for (std::uint32_t s = 0; s < ha.config().llc_slices; ++s)
        EXPECT_TRUE(same(ha.llc(s).stats(), hb.llc(s).stats())) << s;
    std::set<Addr> lines;
    for (const mem::AccessInfo &info : a.log) {
        if (info.pid == a.attacker->pid())
            lines.insert(cache::line_of(info.pa));
    }
    for (const Addr pa : lines) {
        EXPECT_EQ(ha.l1().lines_in_set(ha.l1().set_index(pa)),
                  hb.l1().lines_in_set(hb.l1().set_index(pa)));
        EXPECT_EQ(ha.l2().lines_in_set(ha.l2().set_index(pa)),
                  hb.l2().lines_in_set(hb.l2().set_index(pa)));
        EXPECT_EQ(ha.llc(ha.llc_slice(pa)).lines_in_set(ha.llc_set(pa)),
                  hb.llc(hb.llc_slice(pa)).lines_in_set(hb.llc_set(pa)));
    }

    const auto &da = a.machine->dram().stats();
    const auto &db = b.machine->dram().stats();
    EXPECT_EQ(std::tie(da.accesses, da.row_hits, da.row_misses,
                       da.selective_refreshes, da.refresh_stall),
              std::tie(db.accesses, db.row_hits, db.row_misses,
                       db.selective_refreshes, db.refresh_stall));
    const auto &fa = a.machine->dram().flips();
    const auto &fb = b.machine->dram().flips();
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i) {
        EXPECT_EQ(std::tie(fa[i].time, fa[i].flat_bank, fa[i].row,
                           fa[i].disturbance, fa[i].threshold),
                  std::tie(fb[i].time, fb[i].flat_bank, fb[i].row,
                           fb[i].disturbance, fb[i].threshold))
            << "flip " << i;
    }
    EXPECT_EQ(a.machine->now(), b.machine->now());
    for (Pid pid = 0; pid < a.machine->process_count(); ++pid) {
        const mem::AddressSpace &x = a.machine->process(pid);
        const mem::AddressSpace &y = b.machine->process(pid);
        EXPECT_EQ(std::make_tuple(x.accesses(), x.tlb_hits(), x.tlb_misses()),
                  std::make_tuple(y.accesses(), y.tlb_hits(), y.tlb_misses()))
            << "pid " << pid;
    }

    const detector::AnvilStats &sa = a.anvil->stats();
    const detector::AnvilStats &sb = b.anvil->stats();
    EXPECT_EQ(std::tie(sa.stage1_windows, sa.stage1_triggers,
                       sa.stage2_windows, sa.detections,
                       sa.selective_refreshes, sa.false_positive_detections,
                       sa.false_positive_refreshes, sa.overhead),
              std::tie(sb.stage1_windows, sb.stage1_triggers,
                       sb.stage2_windows, sb.detections,
                       sb.selective_refreshes, sb.false_positive_detections,
                       sb.false_positive_refreshes, sb.overhead));
    const auto &ea = a.anvil->detections();
    const auto &eb = b.anvil->detections();
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(std::tie(ea[i].time, ea[i].refreshes_performed,
                           ea[i].offender_pid),
                  std::tie(eb[i].time, eb[i].refreshes_performed,
                           eb[i].offender_pid))
            << "detection " << i;
        ASSERT_EQ(ea[i].aggressors.size(), eb[i].aggressors.size());
        for (std::size_t k = 0; k < ea[i].aggressors.size(); ++k) {
            const detector::Aggressor &x = ea[i].aggressors[k];
            const detector::Aggressor &y = eb[i].aggressors[k];
            EXPECT_EQ(std::tie(x.flat_bank, x.row, x.samples,
                               x.estimated_accesses),
                      std::tie(y.flat_bank, y.row, y.samples,
                               y.estimated_accesses));
        }
    }
}

/// Hammer iterations per equivalence case.
constexpr std::uint64_t kProgramIterations = 5000;

class ProgramEquivalence
    : public ::testing::TestWithParam<std::tuple<Pattern, cache::ReplPolicy>>
{
};

/**
 * Hammer::step() (a memoized program, or op by op under kRandom) and the
 * same ops as explicit calls leave two identical machines identical,
 * with ANVIL's alarms and sampling PMIs firing mid-iteration.
 */
TEST_P(ProgramEquivalence, StepMatchesExplicitCalls)
{
    const auto [pattern, policy] = GetParam();
    Rig programmed(policy);
    Rig reference(policy);
    HammerUnderTest hammer = make_hammer(programmed, pattern);
    HammerUnderTest by_hand = make_hammer(reference, pattern);
    programmed.anvil->start();
    reference.anvil->start();
    const Pid pid = reference.attacker->pid();
    for (std::uint64_t i = 1; i <= kProgramIterations; ++i) {
        hammer.hammer->step();
        reference.perform(pid, by_hand.ops(i));
    }
    expect_same_machine(programmed, reference);
    // ANVIL's alarms, PMIs and refreshes and the DRAM's flips all
    // happened between ops of an iteration.
    EXPECT_GT(reference.anvil->stats().detections, 0u);
    EXPECT_FALSE(reference.machine->dram().flips().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllHammersAllPolicies, ProgramEquivalence,
    ::testing::Combine(
        ::testing::Values(Pattern::kClflushLoads, Pattern::kClflushStores,
                          Pattern::kSingleSided, Pattern::kClflushFree,
                          Pattern::kHalfDouble),
        ::testing::Values(cache::ReplPolicy::kLru,
                          cache::ReplPolicy::kBitPlru,
                          cache::ReplPolicy::kNru,
                          cache::ReplPolicy::kTreePlru,
                          cache::ReplPolicy::kSrrip,
                          cache::ReplPolicy::kRandom)),
    [](const auto &info) {
        return std::string(to_string(std::get<0>(info.param))) + "_" +
               cache::to_string(std::get<1>(info.param));
    });

/**
 * A benign tenant interleaved with the hammer touches the hammer's sets
 * between iterations, so the program meets fresh starting states (memo
 * misses); the machines must still agree.
 */
TEST(ProgramEquivalenceInterleaved, WorkloadTenantBetweenIterations)
{
    for (const Pattern pattern :
         {Pattern::kClflushLoads, Pattern::kClflushFree}) {
        SCOPED_TRACE(to_string(pattern));
        Rig programmed(cache::ReplPolicy::kBitPlru);
        Rig reference(cache::ReplPolicy::kBitPlru);
        HammerUnderTest hammer = make_hammer(programmed, pattern);
        HammerUnderTest by_hand = make_hammer(reference, pattern);
        const workload::SpecProfile &mcf = workload::spec_profile("mcf");
        workload::Workload tenant_a(*programmed.machine, mcf);
        workload::Workload tenant_b(*reference.machine, mcf);
        programmed.anvil->start();
        reference.anvil->start();
        const Pid pid = reference.attacker->pid();
        for (std::uint64_t i = 1; i <= kProgramIterations; ++i) {
            hammer.hammer->step();
            reference.perform(pid, by_hand.ops(i));
            tenant_a.run_ops(4);
            tenant_b.run_ops(4);
        }
        expect_same_machine(programmed, reference);
    }
}

/**
 * After munmap + mmap the program's VAs translate to other frames (here:
 * a fresh process maps its buffer at the same VA base): the program
 * recompiles, its memo starts over, and the machines still agree.
 */
TEST(ProgramEquivalenceRemap, RecompilesWhenTranslationsChange)
{
    Rig programmed(cache::ReplPolicy::kBitPlru);
    Rig reference(cache::ReplPolicy::kBitPlru);
    // Both rigs search alike: translations are part of what is compared.
    const auto eviction_ops = [](const Rig &rig) {
        const DoubleSidedTarget t = shared_set_target(rig);
        const std::vector<Addr> touches = rig.layout->build_eviction_set(
            t.low_aggressor_va,
            rig.machine->hierarchy().config().llc_ways - 1);
        std::vector<Op> ops;
        for (const Addr aggressor :
             {t.low_aggressor_va, t.high_aggressor_va}) {
            ops.push_back({aggressor, AccessType::kLoad, false});
            for (const Addr va : touches)
                ops.push_back({va, AccessType::kLoad, false});
        }
        ops.push_back({t.low_aggressor_va, AccessType::kLoad, true});
        return ops;
    };
    const std::vector<Op> ops = eviction_ops(reference);
    ASSERT_EQ(eviction_ops(programmed).size(), ops.size());
    cache::AccessProgram program(ops);
    programmed.anvil->start();
    reference.anvil->start();

    Pid pid = reference.attacker->pid();
    const auto hammer = [&](std::uint64_t iterations) {
        for (std::uint64_t i = 0; i < iterations; ++i) {
            programmed.machine->run(pid, program);
            reference.perform(pid, ops);
        }
    };
    hammer(kProgramIterations / 2);
    const std::uint64_t misses_before = program.memo_misses();
    EXPECT_GT(program.memo_hits(), 0u);

    for (Rig *rig : {&programmed, &reference}) {
        const Addr old_frame = rig->attacker->pagemap(ops[0].addr);
        rig->attacker->munmap(rig->buffer, Rig::kBufferBytes);
        mem::AddressSpace &fresh = rig->machine->create_process();
        ASSERT_EQ(fresh.mmap(Rig::kBufferBytes), rig->buffer);
        EXPECT_NE(fresh.pagemap(ops[0].addr), old_frame);
        pid = fresh.pid();
    }
    hammer(kProgramIterations / 2);
    EXPECT_GT(program.memo_misses(), misses_before);
    expect_same_machine(programmed, reference);
}

/** Under kRandom every run goes op by op: a replay would skip RNG draws. */
TEST(ProgramEquivalenceRemap, RandomPolicyNeverReplays)
{
    Rig rig(cache::ReplPolicy::kRandom);
    const DoubleSidedTarget t = shared_set_target(rig);
    cache::AccessProgram program(
        {{t.low_aggressor_va, AccessType::kLoad, false},
         {t.high_aggressor_va, AccessType::kLoad, false},
         {t.low_aggressor_va, AccessType::kLoad, true}});
    for (int i = 0; i < 100; ++i)
        rig.machine->run(rig.attacker->pid(), program);
    EXPECT_EQ(program.memo_hits(), 0u);
    EXPECT_EQ(program.memo_misses(), 0u);
}

}  // namespace
}  // namespace anvil::attack
