/**
 * @file
 * Walkthrough of the CLFLUSH-free rowhammer attack (paper Section 2.2).
 *
 * Demonstrates every stage an attacker goes through:
 *   1. map a large buffer and read /proc/pagemap to learn physical frames;
 *   2. find aggressor rows sandwiching a victim row in one DRAM bank;
 *   3. build an LLC eviction set (same set, same slice) for the aggressors
 *      using the reverse-engineered cache mapping;
 *   4. drive the Bit-PLRU replacement state so that ONLY the two aggressor
 *      addresses miss the cache each iteration;
 *   5. hammer until the victim row's bits flip — without ever executing a
 *      CLFLUSH instruction.
 */
#include <cstdio>

#include "attack/hammer.hh"
#include "mem/memory_system.hh"
#include "scenario/testbed.hh"

using namespace anvil;

int
main()
{
    mem::SystemConfig config;
    mem::MemorySystem machine(config);

    std::printf("machine: %.1f GB DDR3, %u banks, %u-way Bit-PLRU LLC\n",
                static_cast<double>(config.dram.capacity_bytes()) /
                    (1ULL << 30),
                config.dram.total_banks(), config.cache.llc_ways);

    // -- Stage 1: buffer + pagemap ---------------------------------------
    scenario::Attacker intruder(machine);
    mem::AddressSpace &attacker = *intruder.space;
    attack::MemoryLayout &layout = intruder.layout;
    std::printf("mapped %llu MB, scanned %zu pages via pagemap\n",
                static_cast<unsigned long long>(
                    scenario::kDefaultAttackBufferBytes >> 20),
                layout.pages_scanned());

    // -- Stage 2: find a double-sided target ------------------------------
    const auto targets = layout.find_double_sided_targets(512);
    std::printf("found %zu double-sided aggressor/victim triples\n",
                targets.size());
    const attack::DoubleSidedTarget *target = nullptr;
    for (const auto &t : targets) {
        // The shared-LLC-set placement needs the two aggressors to agree
        // on the slice hash; ~1 in 4 triples qualifies.
        if (attack::ClflushFreeDoubleSided::slice_compatible(
                machine, attacker.pid(), t)) {
            target = &t;
            break;
        }
    }
    if (target == nullptr) {
        std::printf("no slice-compatible target; map a larger buffer\n");
        return 1;
    }
    std::printf("target: bank %u, victim row %u (aggressors %u and %u)\n",
                target->flat_bank, target->victim_row,
                target->victim_row - 1, target->victim_row + 1);

    // -- Stage 3 + 4: eviction set & replacement-state manipulation -------
    attack::ClflushFreeDoubleSided hammer(machine, attacker.pid(), *target,
                                          layout);
    std::printf("eviction set: %zu conflict lines sharing LLC set %u, "
                "slice %u\n",
                hammer.touch_set().size(),
                machine.hierarchy().llc_set(
                    attacker.translate(hammer.a0())),
                machine.hierarchy().llc_slice(
                    attacker.translate(hammer.a0())));

    // Show the steady-state cache behaviour the attack relies on.
    for (int i = 0; i < 4; ++i)
        hammer.step();  // warm up
    const auto llc_before = machine.hierarchy().llc_stats();
    const Tick t0 = machine.now();
    for (int i = 0; i < 1000; ++i)
        hammer.step();
    const auto llc_after = machine.hierarchy().llc_stats();
    const double misses_per_iter =
        static_cast<double>(llc_after.misses - llc_before.misses) / 1000.0;
    const double ns_per_iter = to_ns(machine.now() - t0) / 1000.0;
    std::printf("steady state: %.2f LLC misses per iteration "
                "(both aggressor rows), %.0f ns per iteration,\n"
                "              up to %.0fK double-sided hammers per 64 ms "
                "refresh interval (paper: ~190K)\n",
                misses_per_iter, ns_per_iter, 64e6 / ns_per_iter / 1000.0);

    // -- Stage 5: hammer victims until one flips ---------------------------
    // Not every victim row is equally sensitive; like the published attack
    // implementations, keep moving to the next target until bits flip.
    int tried = 0;
    for (const auto &t : targets) {
        if (!attack::ClflushFreeDoubleSided::slice_compatible(
                machine, attacker.pid(), t)) {
            continue;
        }
        if (++tried > 12)
            break;
        attack::ClflushFreeDoubleSided trial(machine, attacker.pid(), t,
                                             layout);
        const attack::HammerResult result = trial.run(ms(128));
        if (result.flipped) {
            std::printf("BIT FLIP in bank %u row %u after %llu aggressor "
                        "accesses (%.1f ms of hammering, %d target(s) "
                        "tried) — no CLFLUSH executed\n",
                        result.flips[0].flat_bank, result.flips[0].row,
                        static_cast<unsigned long long>(
                            result.aggressor_accesses),
                        to_ms(result.duration), tried);
            return 0;
        }
        std::printf("victim row %u resisted (%.0f ms); trying the next "
                    "target\n",
                    t.victim_row, to_ms(result.duration));
    }
    std::printf("no flip after %d targets — this module's sensitive rows "
                "are elsewhere in the buffer\n", tried);
    return 0;
}
