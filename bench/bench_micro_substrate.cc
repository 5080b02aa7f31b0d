/**
 * @file
 * Substrate microbenchmarks (google-benchmark): host-side throughput of
 * the simulator's hot paths. These are engineering benchmarks for the
 * simulator itself, not paper results — they bound how much simulated
 * time the paper-reproduction harnesses can afford.
 */
#include <benchmark/benchmark.h>

#include "cache/hierarchy.hh"
#include "dram/dram_system.hh"
#include "pmu/pmu.hh"
#include "scenario/testbed.hh"
#include "sim/event_queue.hh"
#include "workload/workload.hh"

using namespace anvil;

namespace {

void
BM_EventQueueScheduleFire(benchmark::State &state)
{
    sim::EventQueue q;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        q.schedule_in(10, [&] { ++fired; });
        q.elapse(10);
    }
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueScheduleFire);

void
BM_CacheHierarchyL1Hit(benchmark::State &state)
{
    cache::CacheHierarchy h{cache::HierarchyConfig{}};
    h.access(0x1000, AccessType::kLoad);
    for (auto _ : state)
        benchmark::DoNotOptimize(h.access(0x1000, AccessType::kLoad));
}
BENCHMARK(BM_CacheHierarchyL1Hit);

void
BM_CacheHierarchyLlcMissStream(benchmark::State &state)
{
    cache::CacheHierarchy h{cache::HierarchyConfig{}};
    Addr pa = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(h.access(pa, AccessType::kLoad));
        pa += cache::kLineBytes;
        pa &= (1ULL << 30) - 1;
    }
}
BENCHMARK(BM_CacheHierarchyLlcMissStream);

void
BM_DramAccessRowConflict(benchmark::State &state)
{
    dram::DramSystem dram{dram::DramConfig{}};
    Tick t = 0;
    bool flip = false;
    for (auto _ : state) {
        // Alternate two rows of one bank: worst-case activation path.
        const Addr pa = flip ? (1ULL << 20) : 0;
        flip = !flip;
        t += dram.access(pa, t).latency;
    }
    benchmark::DoNotOptimize(t);
}
BENCHMARK(BM_DramAccessRowConflict);

void
BM_MemorySystemFullAccessPath(benchmark::State &state)
{
    mem::MemorySystem machine{mem::SystemConfig{}};
    pmu::Pmu pmu(machine);
    mem::AddressSpace &proc = machine.create_process();
    const Addr base = proc.mmap(16ULL << 20);
    Addr va = base;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            machine.access(proc.pid(), va, AccessType::kLoad));
        va += cache::kLineBytes;
        if (va >= base + (16ULL << 20))
            va = base;
    }
}
BENCHMARK(BM_MemorySystemFullAccessPath);

void
BM_WorkloadStep(benchmark::State &state)
{
    mem::MemorySystem machine{mem::SystemConfig{}};
    workload::Workload load(machine, workload::spec_profile("gcc"));
    for (auto _ : state)
        load.step();
}
BENCHMARK(BM_WorkloadStep);

void
BM_HammerIterationClflush(benchmark::State &state)
{
    mem::MemorySystem machine{mem::SystemConfig{}};
    pmu::Pmu pmu(machine);
    scenario::Attacker attacker(machine);
    const auto target = scenario::weakest_double_sided(machine, attacker);
    attack::ClflushDoubleSided hammer(machine, attacker.pid(), *target);
    for (auto _ : state)
        hammer.step();
}
BENCHMARK(BM_HammerIterationClflush);

void
BM_HammerIterationClflushFree(benchmark::State &state)
{
    mem::MemorySystem machine{mem::SystemConfig{}};
    pmu::Pmu pmu(machine);
    scenario::Attacker attacker(machine);
    const auto target = scenario::weakest_double_sided(
        machine, attacker, /*require_slice_compatible=*/true);
    attack::ClflushFreeDoubleSided hammer(machine, attacker.pid(), *target,
                                          attacker.layout);
    for (auto _ : state)
        hammer.step();
}
BENCHMARK(BM_HammerIterationClflushFree);

void
BM_EvictionSetConstruction(benchmark::State &state)
{
    mem::MemorySystem machine{mem::SystemConfig{}};
    pmu::Pmu pmu(machine);
    scenario::Attacker attacker(machine);
    const auto targets = attacker.layout.find_double_sided_targets(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(attacker.layout.build_eviction_set(
            targets[0].low_aggressor_va, 12));
    }
}
BENCHMARK(BM_EvictionSetConstruction);

void
BM_PagemapTranslate(benchmark::State &state)
{
    mem::MemorySystem machine{mem::SystemConfig{}};
    mem::AddressSpace &proc = machine.create_process();
    const Addr base = proc.mmap(16ULL << 20);
    Addr va = base;
    for (auto _ : state) {
        benchmark::DoNotOptimize(proc.translate(va));
        va += 4096;
        if (va >= base + (16ULL << 20))
            va = base;
    }
}
BENCHMARK(BM_PagemapTranslate);

}  // namespace

BENCHMARK_MAIN();
