/**
 * @file
 * Quickstart: build the simulated machine, run a double-sided CLFLUSH
 * rowhammer attack against unprotected DRAM, watch it flip bits, then
 * load ANVIL and watch the same attack get detected and neutralized.
 *
 * This walks through the whole public API surface in ~100 lines:
 * MemorySystem, MemoryLayout (the attacker's pagemap view), the hammer
 * kernels, the PMU, and the ANVIL detector.
 */
#include <cstdio>

#include "anvil/anvil.hh"
#include "attack/hammer.hh"
#include "mem/memory_system.hh"
#include "scenario/testbed.hh"

using namespace anvil;

namespace {

/** Runs one hammering campaign and reports what happened. */
void
campaign(const char *label, bool protect)
{
    // A fresh machine: 4 GB DDR3 behind a Sandy Bridge-like hierarchy.
    mem::SystemConfig config;
    mem::MemorySystem machine(config);

    // The attacker: one process that maps a 64 MB buffer and scans it
    // through /proc/pagemap for aggressor/victim row triples.
    scenario::Attacker intruder(machine);

    const auto targets = intruder.layout.find_double_sided_targets(16);
    if (targets.empty()) {
        std::printf("no double-sided targets found\n");
        return;
    }

    // Optionally load the defense.
    detector::Anvil anvil(machine, machine.pmu(),
                          detector::AnvilConfig::baseline());
    if (protect)
        anvil.start();

    std::printf("== %s ==\n", label);
    std::uint64_t total_flips = 0;
    for (const auto &target : targets) {
        attack::ClflushDoubleSided hammer(machine, intruder.space->pid(),
                                          target);
        const attack::HammerResult result = hammer.run(ms(80));
        total_flips += result.flips.size();
        std::printf(
            "  bank %2u victim row %5u: %s after %llu aggressor accesses "
            "(%.1f ms)\n",
            target.flat_bank, target.victim_row,
            result.flipped ? "FLIPPED" : "no flip",
            static_cast<unsigned long long>(result.aggressor_accesses),
            to_ms(result.duration));
        if (total_flips >= 2 && !protect)
            break;  // seen enough carnage
    }

    std::printf("  total bit flips: %llu\n",
                static_cast<unsigned long long>(total_flips));
    if (protect) {
        const auto &stats = anvil.stats();
        std::printf("  ANVIL: %llu detections, %llu selective refreshes, "
                    "%.2f ms overhead\n",
                    static_cast<unsigned long long>(stats.detections),
                    static_cast<unsigned long long>(
                        stats.selective_refreshes),
                    to_ms(stats.overhead));
    }
}

}  // namespace

int
main()
{
    campaign("unprotected system", /*protect=*/false);
    campaign("ANVIL-protected system", /*protect=*/true);
    return 0;
}
