/**
 * @file
 * A day in the life of an ANVIL-protected machine: ordinary benchmarks
 * run with ~1 % overhead and near-zero false positives; when a rowhammer
 * attack starts mid-run it is detected within a refresh period, its victim
 * rows are selectively refreshed, and no bit ever flips.
 */
#include <cstdio>

#include "anvil/anvil.hh"
#include "attack/hammer.hh"
#include "mem/memory_system.hh"
#include "scenario/scheduler.hh"
#include "scenario/testbed.hh"
#include "workload/workload.hh"

using namespace anvil;

int
main()
{
    mem::MemorySystem machine{mem::SystemConfig{}};

    // Load the ANVIL kernel module.
    detector::Anvil anvil(machine, machine.pmu(),
                          detector::AnvilConfig::baseline());
    bool attack_running = false;
    anvil.set_ground_truth([&] { return attack_running; });
    anvil.start();
    std::printf("%s loaded: tc=%.0f ms, ts=%.0f ms, threshold=%llu misses\n",
                anvil.config().name.c_str(), to_ms(anvil.config().tc),
                to_ms(anvil.config().ts),
                static_cast<unsigned long long>(
                    anvil.config().llc_miss_threshold));

    // Ordinary multiprogrammed load.
    workload::Workload mcf(machine, workload::spec_profile("mcf"));
    workload::Workload gcc(machine, workload::spec_profile("gcc"));
    scenario::TenantScheduler benign(machine);
    benign.add({&mcf});
    benign.add({&gcc});

    std::printf("\n-- phase 1: benign workloads only (300 ms) --\n");
    benign.run_until(machine.now() + ms(300));
    std::printf("stage-1 windows: %llu, escalations to sampling: %llu, "
                "false-positive refreshes: %llu\n",
                static_cast<unsigned long long>(
                    anvil.stats().stage1_windows),
                static_cast<unsigned long long>(
                    anvil.stats().stage1_triggers),
                static_cast<unsigned long long>(
                    anvil.stats().false_positive_refreshes));

    // An attacker process appears.
    std::printf("\n-- phase 2: CLFLUSH rowhammer attack joins (200 ms) --\n");
    scenario::Attacker intruder(machine);
    const auto targets = intruder.layout.find_double_sided_targets(4);
    if (targets.empty()) {
        std::printf("no targets found\n");
        return 1;
    }
    attack::ClflushDoubleSided hammer(machine, intruder.space->pid(),
                                      targets.front());
    scenario::TenantScheduler mixed(machine);
    mixed.add({&hammer});
    mixed.add({&mcf});
    mixed.add({&gcc});

    attack_running = true;
    const Tick attack_start = machine.now();
    const auto detections_before = anvil.stats().detections;
    mixed.run_until(machine.now() + ms(200));
    attack_running = false;

    const auto &stats = anvil.stats();
    std::printf("detections: %llu",
                static_cast<unsigned long long>(stats.detections -
                                                detections_before));
    for (const auto &d : anvil.detections()) {
        if (d.time >= attack_start) {
            std::printf(" (first after %.1f ms)",
                        to_ms(d.time - attack_start));
            break;
        }
    }
    std::printf("\nselective refreshes: %llu, bit flips: %zu\n",
                static_cast<unsigned long long>(stats.selective_refreshes),
                machine.dram().flips().size());
    std::printf("detector overhead so far: %.2f ms of core time (%.2f %% "
                "of the run)\n",
                to_ms(stats.overhead),
                100.0 * static_cast<double>(stats.overhead) /
                    static_cast<double>(machine.now()));

    std::printf("\n-- phase 3: attacker leaves; system keeps running --\n");
    benign.run_until(machine.now() + ms(100));
    std::printf("final bit-flip count: %zu (the attack never landed)\n",
                machine.dram().flips().size());
    return 0;
}
