/**
 * @file
 * Unit tests for the simulated PMU: event counters, overflow interrupts,
 * and the PEBS load-latency / precise-store sampling facilities.
 */
#include <gtest/gtest.h>

#include <vector>

#include "common/units.hh"
#include "mem/memory_system.hh"
#include "pmu/pmu.hh"

namespace anvil::pmu {
namespace {

mem::SystemConfig
small_system()
{
    mem::SystemConfig c;
    c.dram.ranks_per_channel = 1;
    c.dram.banks_per_rank = 8;
    c.dram.rows_per_bank = 4096;
    return c;
}

class PmuTest : public ::testing::Test
{
  protected:
    PmuTest() : machine_(small_system()), pmu_(machine_)
    {
        proc_ = &machine_.create_process();
        arena_ = proc_->mmap(arena_bytes_);
    }

    /** Issues @p n accesses guaranteed to miss the LLC (streaming). */
    void
    stream_misses(std::uint64_t n, AccessType type = AccessType::kLoad)
    {
        for (std::uint64_t i = 0; i < n; ++i) {
            stream_ += 64;
            if (stream_ >= arena_bytes_)
                stream_ = 0;
            machine_.access(proc_->pid(), arena_ + stream_, type);
        }
    }

    /** Issues @p n L1 hits on one line. */
    void
    hit_l1(std::uint64_t n)
    {
        machine_.access(proc_->pid(), arena_, AccessType::kLoad);
        for (std::uint64_t i = 0; i < n; ++i)
            machine_.access(proc_->pid(), arena_, AccessType::kLoad);
    }

    /** Takes the PMU's accumulated PEBS records. */
    std::vector<PebsRecord>
    drain()
    {
        std::vector<PebsRecord> samples;
        pmu_.drain_samples(samples);
        return samples;
    }

    static constexpr std::uint64_t arena_bytes_ = 16ULL << 20;
    mem::MemorySystem machine_;
    Pmu pmu_;
    mem::AddressSpace *proc_ = nullptr;
    Addr arena_ = 0;
    std::uint64_t stream_ = 0;
};

TEST_F(PmuTest, LlcMissCounterCountsOnlyMisses)
{
    stream_misses(100);
    const std::uint64_t misses = pmu_.counter(Event::kLlcMisses).value();
    EXPECT_EQ(misses, 100u);
    hit_l1(50);
    // One cold miss from the first touch of the hit line at most.
    EXPECT_LE(pmu_.counter(Event::kLlcMisses).value(), misses + 1);
}

TEST_F(PmuTest, LoadAndStoreMissCountersSplit)
{
    stream_misses(60, AccessType::kLoad);
    stream_misses(40, AccessType::kStore);
    EXPECT_EQ(pmu_.counter(Event::kLlcLoadMisses).value(), 60u);
    EXPECT_EQ(pmu_.counter(Event::kLlcStoreMisses).value(), 40u);
    EXPECT_EQ(pmu_.counter(Event::kLlcMisses).value(), 100u);
}

TEST_F(PmuTest, RetirementCountersCountEverything)
{
    stream_misses(10, AccessType::kLoad);
    hit_l1(5);
    EXPECT_EQ(pmu_.counter(Event::kLoadsRetired).value(), 16u);
    stream_misses(3, AccessType::kStore);
    EXPECT_EQ(pmu_.counter(Event::kStoresRetired).value(), 3u);
}

TEST_F(PmuTest, OverflowInterruptFiresAtThreshold)
{
    std::uint64_t fired_at_count = 0;
    Tick fired_at_time = 0;
    pmu_.counter(Event::kLlcMisses).arm_overflow(50, [&] {
        fired_at_count = pmu_.counter(Event::kLlcMisses).value();
        fired_at_time = machine_.now();
    });
    stream_misses(100);
    EXPECT_EQ(fired_at_count, 50u);
    EXPECT_GT(fired_at_time, 0u);
    // Fires only once.
    EXPECT_FALSE(pmu_.counter(Event::kLlcMisses).armed());
}

TEST_F(PmuTest, ArmResetsCountAndDisarmCancels)
{
    stream_misses(30);
    bool fired = false;
    pmu_.counter(Event::kLlcMisses).arm_overflow(40, [&] { fired = true; });
    EXPECT_EQ(pmu_.counter(Event::kLlcMisses).value(), 0u);  // reset
    stream_misses(39);
    EXPECT_FALSE(fired);
    pmu_.counter(Event::kLlcMisses).disarm();
    stream_misses(10);
    EXPECT_FALSE(fired);
}

TEST_F(PmuTest, HandlerMayRearmItself)
{
    int fires = 0;
    std::function<void()> rearm = [&] {
        ++fires;
        if (fires < 3)
            pmu_.counter(Event::kLlcMisses).arm_overflow(10, rearm);
    };
    pmu_.counter(Event::kLlcMisses).arm_overflow(10, rearm);
    stream_misses(100);
    EXPECT_EQ(fires, 3);
}

TEST_F(PmuTest, SamplingRateMatchesConfiguredMeanPeriod)
{
    SampleConfig sc;
    sc.mean_period = us(200);  // 5000 samples/s
    sc.load_latency_threshold = 0;
    sc.sample_loads = true;
    pmu_.enable_sampling(sc);
    // Stream misses for ~6 ms of simulated time.
    const Tick start = machine_.now();
    while (machine_.now() - start < ms(6))
        stream_misses(100);
    const auto samples = drain();
    // Paper: ~30 samples per 6 ms window on average.
    EXPECT_GE(samples.size(), 18u);
    EXPECT_LE(samples.size(), 45u);
}

TEST_F(PmuTest, LoadLatencyThresholdFiltersCacheHits)
{
    SampleConfig sc;
    sc.mean_period = us(1);  // sample aggressively
    sc.load_latency_threshold =
        machine_.core().cycles_to_ticks(100);  // only DRAM-class loads
    sc.sample_loads = true;
    pmu_.enable_sampling(sc);
    hit_l1(5000);
    EXPECT_EQ(drain().size(), 0u);
    stream_misses(5000);
    const auto samples = drain();
    EXPECT_GT(samples.size(), 0u);
    for (const auto &s : samples) {
        EXPECT_EQ(s.source, DataSource::kDram);
        EXPECT_EQ(s.type, AccessType::kLoad);
        EXPECT_GE(s.latency, sc.load_latency_threshold);
        EXPECT_EQ(s.pid, proc_->pid());
    }
}

TEST_F(PmuTest, StoreSamplingCapturesStoreMisses)
{
    SampleConfig sc;
    sc.mean_period = us(1);
    sc.sample_loads = false;
    sc.sample_stores = true;
    pmu_.enable_sampling(sc);
    stream_misses(2000, AccessType::kLoad);
    EXPECT_EQ(drain().size(), 0u);  // loads not eligible
    stream_misses(2000, AccessType::kStore);
    const auto samples = drain();
    EXPECT_GT(samples.size(), 0u);
    for (const auto &s : samples)
        EXPECT_EQ(s.type, AccessType::kStore);
}

TEST_F(PmuTest, SampledVirtualAddressesAreReal)
{
    SampleConfig sc;
    sc.mean_period = us(5);
    sc.sample_loads = true;
    pmu_.enable_sampling(sc);
    stream_misses(5000);
    for (const auto &s : drain()) {
        EXPECT_GE(s.va, arena_);
        EXPECT_LT(s.va, arena_ + arena_bytes_);
        // The VA resolves through the process page table.
        EXPECT_NE(proc_->translate(s.va), kInvalidAddr);
    }
}

TEST_F(PmuTest, DisableSamplingStopsRecords)
{
    SampleConfig sc;
    sc.mean_period = us(1);
    sc.sample_loads = true;
    pmu_.enable_sampling(sc);
    stream_misses(1000);
    pmu_.disable_sampling();
    const std::size_t frozen = pmu_.pending_samples();
    stream_misses(1000);
    EXPECT_EQ(pmu_.pending_samples(), frozen);
    EXPECT_EQ(drain().size(), frozen);
    EXPECT_EQ(pmu_.pending_samples(), 0u);
}

TEST_F(PmuTest, PerPidMissAttributionSumsToTheCounter)
{
    mem::AddressSpace &other = machine_.create_process();
    const Addr arena2 = other.mmap(4ULL << 20);

    stream_misses(200);
    Addr off = 0;
    for (int i = 0; i < 150; ++i) {
        off += 64;
        machine_.access(other.pid(), arena2 + off, AccessType::kLoad);
    }
    hit_l1(50);  // hits attribute to nobody

    const std::uint64_t total = pmu_.counter(Event::kLlcMisses).value();
    EXPECT_GT(pmu_.llc_misses(proc_->pid()), 0u);
    EXPECT_GT(pmu_.llc_misses(other.pid()), 0u);
    std::uint64_t sum = 0;
    for (const std::uint64_t misses : pmu_.llc_misses_by_pid())
        sum += misses;
    EXPECT_EQ(sum, total);
    // A pid never observed reads zero, never throws.
    EXPECT_EQ(pmu_.llc_misses(42), 0u);
}

TEST_F(PmuTest, OverflowHandlerSeesTheTriggeringMissAttributed)
{
    // A Stage-1 PMI must be able to rank tenants including the very
    // miss that tripped the counter.
    std::uint64_t at_overflow = 0;
    pmu_.counter(Event::kLlcMisses)
        .arm_overflow(10, [&] {
            at_overflow = pmu_.llc_misses(proc_->pid());
        });
    stream_misses(20);
    EXPECT_EQ(at_overflow, 10u);
}

}  // namespace
}  // namespace anvil::pmu
