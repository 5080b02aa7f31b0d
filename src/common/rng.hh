/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (PEBS sampling jitter, random
 * replacement, per-cell flip-threshold variation, workload address streams)
 * draws from explicitly seeded Rng instances so that every experiment is
 * reproducible bit-for-bit.
 */
#ifndef ANVIL_COMMON_RNG_HH
#define ANVIL_COMMON_RNG_HH

#include <cstdint>

namespace anvil {

/**
 * xoshiro256** generator with splitmix64 seeding.
 *
 * Small, fast, and high quality; this is not a cryptographic generator and
 * does not need to be.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next_u64();

    /** Uniform integer in [0, bound) using Lemire reduction. @pre bound > 0 */
    std::uint64_t next_below(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double next_double();

    /** Bernoulli trial with success probability @p p. */
    bool next_bool(double p);

  private:
    std::uint64_t state_[4];
};

/** splitmix64 step — also useful as a cheap stateless integer hash. */
std::uint64_t splitmix64(std::uint64_t x);

/** Stateless hash of (a, b) onto [0, 1); used for per-row variation. */
double hash_unit_double(std::uint64_t a, std::uint64_t b);

}  // namespace anvil

#endif  // ANVIL_COMMON_RNG_HH
