#include "runner/trial.hh"

#include "common/rng.hh"

namespace anvil::runner {
namespace {

/** FNV-1a 64-bit over a string — stable, platform-independent. */
std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

}  // namespace

std::uint64_t
trial_seed(std::uint64_t master_seed, std::string_view scenario,
           std::uint64_t trial)
{
    // Two splitmix64 rounds fully avalanche the (master, scenario, trial)
    // triple; a plain XOR would let correlated inputs collide.
    return splitmix64(splitmix64(master_seed ^ fnv1a(scenario)) + trial);
}

std::uint64_t
sub_seed(std::uint64_t seed, std::string_view stream)
{
    return splitmix64(seed ^ fnv1a(stream));
}

std::string_view
to_string(TrialStatus status)
{
    switch (status) {
      case TrialStatus::kOk: return "ok";
      case TrialStatus::kFailed: return "failed";
      case TrialStatus::kTimedOut: return "timed_out";
    }
    return "unknown";
}

}  // namespace anvil::runner
