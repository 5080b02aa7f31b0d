#include "mitigations/registry.hh"

#include "mitigations/counter_trr.hh"
#include "mitigations/dapper.hh"
#include "mitigations/hardware.hh"
#include "mitigations/rvc.hh"

namespace anvil::mitigations {

const MitigationRegistry &
mitigation_registry()
{
    static const MitigationRegistry registry = [] {
        MitigationRegistry r;
        // The two paper baselines keep their historic fixed parameters
        // (PARA's builtin seed, TRR's MAC) so sweeps that predate the
        // registry emit byte-identical JSON through it.
        r.add({"para",
               "PARA: probabilistic adjacent row refresh (p = 0.001)",
               [](dram::DramSystem &dram, std::uint64_t) {
                   return std::make_unique<Para>(dram);
               }});
        r.add({"trr",
               "idealized counter TRR: unbounded per-row counters, "
               "MAC 32000",
               [](dram::DramSystem &dram, std::uint64_t) {
                   return std::make_unique<Trr>(dram);
               }});
        r.add({"ctrr-sampled",
               "counter-table TRR: 16 entries/bank, 1-in-4 sampler, "
               "halving reset, MAC 32000",
               [](dram::DramSystem &dram, std::uint64_t seed) {
                   return std::make_unique<CounterTrr>(
                       dram,
                       CounterTrrConfig{
                           .table_size = 16,
                           .mac = 32000,
                           .reset = CounterTrrConfig::Reset::kHalve,
                           .sample_probability = 0.25},
                       seed);
               }});
        r.add({"ctrr-evict",
               "counter-table TRR: 8 entries/bank, FIFO eviction with "
               "refresh-on-evict, MAC 32000",
               [](dram::DramSystem &dram, std::uint64_t seed) {
                   return std::make_unique<CounterTrr>(
                       dram,
                       CounterTrrConfig{
                           .table_size = 8,
                           .mac = 32000,
                           .evict = CounterTrrConfig::Evict::kFifo,
                           .refresh_on_evict = true},
                       seed);
               }});
        r.add({"ctrr-radius2",
               "counter-table TRR: 16 entries/bank, refresh radius 2, "
               "MAC 16000",
               [](dram::DramSystem &dram, std::uint64_t seed) {
                   return std::make_unique<CounterTrr>(
                       dram,
                       CounterTrrConfig{.table_size = 16,
                                        .mac = 16000,
                                        .refresh_radius = 2},
                       seed);
               }});
        r.add({"rvc",
               "victim-centric tracker: per-victim disturbance credit, "
               "direct victim refresh",
               [](dram::DramSystem &dram, std::uint64_t) {
                   return std::make_unique<Rvc>(dram, RvcConfig{});
               }});
        r.add({"dapper",
               "performance-attack-resilient tracker: Misra-Gries "
               "summary + per-tREFI refresh budget",
               [](dram::DramSystem &dram, std::uint64_t) {
                   return std::make_unique<Dapper>(dram, DapperConfig{});
               }});
        return r;
    }();
    return registry;
}

}  // namespace anvil::mitigations
