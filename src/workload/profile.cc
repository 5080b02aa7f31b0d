#include "workload/profile.hh"

namespace anvil::workload {

namespace {

Registry<SpecProfile>
build_profiles()
{
    Registry<SpecProfile> profiles;

    auto add = [&](SpecProfile p) { profiles.add(std::move(p)); };

    // --- Memory-intensive group: crosses the Stage-1 threshold in
    // --- 95-99 % of 6 ms windows.
    {
        SpecProfile p;
        p.name = "mcf";
        p.arena_bytes = 192ULL << 20;
        p.hot_bytes = 1ULL << 20;
        p.hot_fraction = 0.05;  // almost everything is a cold pointer hop
        p.stream_fraction = 0.0;
        p.store_fraction = 0.15;
        p.think_cycles = 120;
        p.thrash_phases_per_sec = 0.0011;
        p.thrash_burst_fraction = 0.0;
        p.thrash_strong_fraction = 1.0;
        p.seed = 101;
        add(p);
    }
    {
        SpecProfile p;
        p.name = "libquantum";
        p.arena_bytes = 64ULL << 20;
        p.stream_fraction = 0.95;  // long unit-stride sweeps
        p.hot_bytes = 256ULL << 10;
        p.hot_fraction = 0.9;
        p.store_fraction = 0.30;
        p.think_cycles = 60;
        p.thrash_phases_per_sec = 0.007;
        p.thrash_burst_fraction = 0.7;
        p.thrash_strong_fraction = 0.3;
        p.seed = 102;
        add(p);
    }
    {
        SpecProfile p;
        p.name = "omnetpp";
        p.arena_bytes = 128ULL << 20;
        p.hot_bytes = 2ULL << 20;
        p.hot_fraction = 0.45;
        p.store_fraction = 0.3;
        p.think_cycles = 100;
        p.thrash_phases_per_sec = 0.0034;
        p.thrash_burst_fraction = 0.0;
        p.thrash_strong_fraction = 1.0;
        p.seed = 103;
        add(p);
    }
    {
        SpecProfile p;
        p.name = "xalancbmk";
        p.arena_bytes = 96ULL << 20;
        p.hot_bytes = 2ULL << 20;
        p.hot_fraction = 0.55;
        p.store_fraction = 0.25;
        p.think_cycles = 110;
        p.thrash_phases_per_sec = 0.0085;
        p.thrash_burst_fraction = 0.14;
        p.thrash_strong_fraction = 0.86;
        p.seed = 104;
        add(p);
    }

    // --- Moderate group.
    {
        SpecProfile p;
        p.name = "astar";
        p.arena_bytes = 64ULL << 20;
        p.hot_bytes = 2ULL << 20;
        p.hot_fraction = 0.88;
        p.store_fraction = 0.25;
        p.think_cycles = 160;
        p.thrash_phases_per_sec = 0.043;
        p.thrash_burst_fraction = 0.0;
        p.thrash_strong_fraction = 0.667;
        p.seed = 105;
        add(p);
    }
    {
        // Blocked compression: strongest conflict-thrash behaviour in the
        // suite, hence the highest false-positive rate in Table 4.
        SpecProfile p;
        p.name = "bzip2";
        p.arena_bytes = 64ULL << 20;
        p.hot_bytes = 2ULL << 20;
        p.hot_fraction = 0.85;
        p.store_fraction = 0.35;
        p.think_cycles = 150;
        p.thrash_phases_per_sec = 0.107;
        p.thrash_burst_fraction = 0.73;
        p.thrash_strong_fraction = 0.0;
        p.thrash_duration = ms(12.0);
        p.seed = 106;
        add(p);
    }
    {
        // Bursty compilation phases; many weak thrash phases (the Table 5
        // ANVIL-light jump comes from these).
        SpecProfile p;
        p.name = "gcc";
        p.arena_bytes = 96ULL << 20;
        p.hot_bytes = 3ULL << 20;
        p.hot_fraction = 0.95;
        p.store_fraction = 0.3;
        p.think_cycles = 140;
        p.thrash_phases_per_sec = 1.16;
        p.thrash_burst_fraction = 0.021;
        p.thrash_strong_fraction = 0.0;
        p.thrash_duration = ms(12.0);
        p.seed = 107;
        add(p);
    }

    // --- Cache-resident group: crosses the Stage-1 threshold in < 10 %
    // --- of windows.
    {
        SpecProfile p;
        p.name = "gobmk";
        p.arena_bytes = 64ULL << 20;
        p.hot_bytes = 1536ULL << 10;
        p.hot_fraction = 0.985;
        p.store_fraction = 0.3;
        p.think_cycles = 140;
        p.thrash_phases_per_sec = 0.032;
        p.thrash_burst_fraction = 0.231;
        p.thrash_strong_fraction = 0.0;
        p.thrash_duration = ms(12.0);
        p.seed = 108;
        add(p);
    }
    {
        SpecProfile p;
        p.name = "h264ref";
        p.arena_bytes = 24ULL << 20;
        p.hot_bytes = 1ULL << 20;
        p.hot_fraction = 0.995;
        p.store_fraction = 0.35;
        p.think_cycles = 100;
        p.thrash_phases_per_sec = 0.0;
        p.thrash_burst_fraction = 0.0;
        p.thrash_strong_fraction = 0.0;
        p.seed = 109;
        add(p);
    }
    {
        SpecProfile p;
        p.name = "hmmer";
        p.arena_bytes = 16ULL << 20;
        p.hot_bytes = 768ULL << 10;
        p.hot_fraction = 0.995;
        p.store_fraction = 0.45;
        p.think_cycles = 80;
        p.thrash_phases_per_sec = 0.0;
        p.thrash_burst_fraction = 0.0;
        p.thrash_strong_fraction = 0.0;
        p.seed = 110;
        add(p);
    }
    {
        SpecProfile p;
        p.name = "perlbench";
        p.arena_bytes = 48ULL << 20;
        p.hot_bytes = 2ULL << 20;
        p.hot_fraction = 0.99;
        p.store_fraction = 0.35;
        p.think_cycles = 120;
        p.thrash_phases_per_sec = 0.0375;
        p.thrash_burst_fraction = 0.0;
        p.thrash_strong_fraction = 0.0;
        p.seed = 111;
        add(p);
    }
    {
        SpecProfile p;
        p.name = "sjeng";
        p.arena_bytes = 32ULL << 20;
        p.hot_bytes = 1ULL << 20;
        p.hot_fraction = 0.99;
        p.store_fraction = 0.25;
        p.think_cycles = 150;
        p.thrash_phases_per_sec = 0.005;
        p.thrash_burst_fraction = 0.0;
        p.thrash_strong_fraction = 0.0;
        p.seed = 112;
        add(p);
    }

    return profiles;
}

}  // namespace

const Registry<SpecProfile> &
spec2006_int()
{
    static const Registry<SpecProfile> profiles = build_profiles();
    return profiles;
}

}  // namespace anvil::workload
