/**
 * @file
 * End-to-end throughput benchmark (google-benchmark): simulated
 * accesses per host second through the full MemorySystem::access path —
 * translate, cache hierarchy, PMU observation, DRAM — for the workload
 * shapes the paper-reproduction sweeps are made of, each with and
 * without the ANVIL detector attached.
 *
 * This is the tracked perf gate for the simulator substrate: the
 * committed BENCH_throughput.json baseline pins the current numbers and
 * CI's perf-smoke job fails on >30% regression. Besides the normal
 * google-benchmark output formats, `--anvil-json=PATH` writes a stable
 * `anvil-bench-v1` report (see EXPERIMENTS.md for the schema).
 */
#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <iomanip>
#include <memory>
#include <string>
#include <vector>

#include "anvil/anvil.hh"
#include "pmu/pmu.hh"
#include "scenario/testbed.hh"
#include "workload/workload.hh"

using namespace anvil;

namespace {

/** Loads + stores retired — the access count every scenario reports. */
std::uint64_t
accesses_retired(const pmu::Pmu &pmu)
{
    return pmu.counter(pmu::Event::kLoadsRetired).value() +
           pmu.counter(pmu::Event::kStoresRetired).value();
}

/** Records simulated accesses/sec for the timing loop just finished. */
void
report_access_rate(benchmark::State &state, std::uint64_t accesses)
{
    state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
    state.counters["sim_accesses_per_sec"] = benchmark::Counter(
        static_cast<double>(accesses), benchmark::Counter::kIsRate);
}

std::unique_ptr<detector::Anvil>
maybe_attach_anvil(mem::MemorySystem &machine, pmu::Pmu &pmu, bool enabled)
{
    if (!enabled)
        return nullptr;
    auto anvil = std::make_unique<detector::Anvil>(
        machine, pmu, detector::AnvilConfig::baseline());
    anvil->start();
    return anvil;
}

/** Double-sided CLFLUSH hammer (Figure 1a) at full rate. */
void
BM_HammerDoubleSidedClflush(benchmark::State &state)
{
    mem::MemorySystem machine{mem::SystemConfig{}};
    pmu::Pmu pmu(machine);
    scenario::Attacker attacker(machine);
    auto anvil = maybe_attach_anvil(machine, pmu, state.range(0));
    const auto target = scenario::weakest_double_sided(machine, attacker);
    attack::ClflushDoubleSided hammer(machine, attacker.pid(), *target);
    const std::uint64_t before = accesses_retired(pmu);
    for (auto _ : state)
        hammer.step();
    report_access_rate(state, accesses_retired(pmu) - before);
}
BENCHMARK(BM_HammerDoubleSidedClflush)->ArgName("anvil")->Arg(0)->Arg(1);

/** CLFLUSH-free double-sided hammer (Figure 1b): eviction-set driven. */
void
BM_HammerClflushFree(benchmark::State &state)
{
    mem::MemorySystem machine{mem::SystemConfig{}};
    pmu::Pmu pmu(machine);
    scenario::Attacker attacker(machine);
    auto anvil = maybe_attach_anvil(machine, pmu, state.range(0));
    const auto target = scenario::weakest_double_sided(
        machine, attacker, /*require_slice_compatible=*/true);
    attack::ClflushFreeDoubleSided hammer(machine, attacker.pid(), *target,
                                          attacker.layout);
    const std::uint64_t before = accesses_retired(pmu);
    for (auto _ : state)
        hammer.step();
    report_access_rate(state, accesses_retired(pmu) - before);
}
BENCHMARK(BM_HammerClflushFree)->ArgName("anvil")->Arg(0)->Arg(1);

/** Streaming benign workload (libquantum profile: sequential-heavy). */
void
BM_WorkloadStreaming(benchmark::State &state)
{
    mem::MemorySystem machine{mem::SystemConfig{}};
    pmu::Pmu pmu(machine);
    auto anvil = maybe_attach_anvil(machine, pmu, state.range(0));
    workload::Workload load(machine, workload::spec_profile("libquantum"));
    const std::uint64_t before = accesses_retired(pmu);
    for (auto _ : state)
        load.step();
    report_access_rate(state, accesses_retired(pmu) - before);
}
BENCHMARK(BM_WorkloadStreaming)->ArgName("anvil")->Arg(0)->Arg(1);

/** Mixed benign multi-program load (the paper's heavy-load trio). */
void
BM_WorkloadMixed(benchmark::State &state)
{
    mem::MemorySystem machine{mem::SystemConfig{}};
    pmu::Pmu pmu(machine);
    auto anvil = maybe_attach_anvil(machine, pmu, state.range(0));
    workload::Workload mcf(machine, workload::spec_profile("mcf"));
    workload::Workload libq(machine, workload::spec_profile("libquantum"));
    workload::Workload omnet(machine, workload::spec_profile("omnetpp"));
    const std::uint64_t before = accesses_retired(pmu);
    for (auto _ : state) {
        mcf.step();
        libq.step();
        omnet.step();
    }
    report_access_rate(state, accesses_retired(pmu) - before);
}
BENCHMARK(BM_WorkloadMixed)->ArgName("anvil")->Arg(0)->Arg(1);

/**
 * Collects per-benchmark results and writes the `anvil-bench-v1` JSON
 * report: one entry per benchmark with the simulated-access rate. The
 * schema is deliberately tiny and stable so the committed baseline stays
 * diffable and the CI comparison script stays trivial.
 */
class AnvilJsonReporter : public benchmark::ConsoleReporter
{
  public:
    explicit AnvilJsonReporter(std::string path) : path_(std::move(path)) {}

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred)
                continue;
            Entry entry;
            entry.name = run.benchmark_name();
            entry.iterations = run.iterations;
            auto it = run.counters.find("sim_accesses_per_sec");
            entry.rate = it != run.counters.end() ? it->second.value : 0.0;
            entries_.push_back(std::move(entry));
        }
        benchmark::ConsoleReporter::ReportRuns(runs);
    }

    void
    Finalize() override
    {
        benchmark::ConsoleReporter::Finalize();
        std::ofstream out(path_);
        out << "{\n  \"schema\": \"anvil-bench-v1\",\n"
            << "  \"benchmarks\": [\n";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            out << "    {\"name\": \"" << e.name << "\", \"iterations\": "
                << e.iterations << ", \"sim_accesses_per_sec\": "
                << std::setprecision(6) << std::scientific << e.rate << "}"
                << (i + 1 < entries_.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
    }

  private:
    struct Entry {
        std::string name;
        std::int64_t iterations = 0;
        double rate = 0.0;
    };

    std::string path_;
    std::vector<Entry> entries_;
};

}  // namespace

int
main(int argc, char **argv)
{
    // Extract our --anvil-json flag before google-benchmark sees argv.
    std::string json_path;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        constexpr const char kFlag[] = "--anvil-json=";
        if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0)
            json_path = argv[i] + sizeof(kFlag) - 1;
        else
            args.push_back(argv[i]);
    }
    int filtered_argc = static_cast<int>(args.size());
    benchmark::Initialize(&filtered_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
        return 1;

    if (json_path.empty()) {
        benchmark::RunSpecifiedBenchmarks();
    } else {
        AnvilJsonReporter reporter(json_path);
        benchmark::RunSpecifiedBenchmarks(&reporter);
    }
    return 0;
}
