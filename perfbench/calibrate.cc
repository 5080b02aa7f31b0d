/**
 * @file
 * perfbench-calibrate: a fixed, memory-bound kernel whose host time
 * tracks how fast the host runs the simulator at this moment.
 *
 * On a host shared with other tenants, their cache and memory traffic
 * slows every sweep by 10-60% for tens of seconds at a time. run.py runs
 * this kernel before each sweep and scales the sweep's host times by the
 * kernel's nominal over its measured time, which removes most of that
 * interference from the reported figures. The kernel is the benchmark's
 * own code, so no change to the simulator can move it. Its work mirrors
 * the simulator's host-side mix: random reads over a table larger than
 * the host's caches and hash-map lookups. (A pure arithmetic loop does
 * not track the interference; it is in the memory system.) Prints the
 * kernel's host seconds.
 */
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <vector>

namespace {

std::uint64_t
xorshift(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

}  // namespace

int
main()
{
    constexpr std::size_t kTable = std::size_t{1} << 21;  // 16 MB
    constexpr std::uint64_t kKeys = 1 << 19;
    const auto t0 = std::chrono::steady_clock::now();

    std::uint64_t x = 88172645463325252ULL;
    std::vector<std::uint64_t> table(kTable);
    for (std::uint64_t &slot : table)
        slot = xorshift(x);
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t i = 0; i < 200000; ++i)
        map[xorshift(x) & (kKeys - 1)] += i;

    std::uint64_t sink = 0;
    for (int i = 0; i < 5000000; ++i) {
        sink += table[xorshift(x) & (kTable - 1)];
        const auto it = map.find(x & (kKeys - 1));
        if (it != map.end())
            sink += it->second;
    }

    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    std::printf("%.9f %llu\n", seconds,
                static_cast<unsigned long long>(sink & 1));
    return 0;
}
