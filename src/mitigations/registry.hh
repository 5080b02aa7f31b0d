/**
 * @file
 * Name registry of the tracker zoo, so scenario specs can select a
 * hardware mitigation declaratively ("rvc", "ctrr-evict", ...) the same
 * way they select workload profiles by name.
 *
 * Each entry is a factory taking the device and a per-trial seed (the
 * trial's "mitigation" sub-stream); trackers with no stochastic state
 * ignore the seed, and the legacy PARA/TRR baselines keep their historic
 * fixed parameters so pre-existing sweep JSON stays byte-identical.
 */
#ifndef ANVIL_MITIGATIONS_REGISTRY_HH
#define ANVIL_MITIGATIONS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/registry.hh"
#include "dram/dram_system.hh"
#include "mitigations/mitigation.hh"

namespace anvil::mitigations {

/** Constructs one tracker attached to @p dram, seeded by @p seed. */
using MitigationFactory = std::function<std::unique_ptr<Mitigation>(
    dram::DramSystem &dram, std::uint64_t seed)>;

/** One named tracker in the zoo. */
struct MitigationEntry {
    static constexpr const char *kind = "mitigation tracker";

    std::string name;         ///< registry key (ScenarioSpec::mitigation)
    std::string description;  ///< one line for listings and error text
    MitigationFactory make;
};

/** Maps tracker names to factories; rejects duplicates. */
using MitigationRegistry = Registry<MitigationEntry>;

/**
 * The built-in tracker zoo: the paper's PARA/TRR baselines, the
 * reverse-engineered counter-table TRR variants, the victim-centric RVC
 * tracker, and the DAPPER-style budgeted tracker.
 */
const MitigationRegistry &mitigation_registry();

}  // namespace anvil::mitigations

#endif  // ANVIL_MITIGATIONS_REGISTRY_HH
