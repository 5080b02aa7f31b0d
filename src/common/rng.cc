#include "common/rng.hh"

namespace anvil {

namespace {

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
hash_unit_double(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t h = splitmix64(splitmix64(a) ^ (b * 0x9e3779b97f4a7c15ULL));
    // Take the top 53 bits so the double is uniform in [0, 1).
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

Rng::Rng(std::uint64_t s)
{
    for (auto &word : state_) {
        s = splitmix64(s);
        word = s;
    }
}

std::uint64_t
Rng::next_u64()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

std::uint64_t
Rng::next_below(std::uint64_t bound)
{
    // Lemire's multiply-shift rejection method.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
        const std::uint64_t threshold = -bound % bound;
        while (low < threshold) {
            x = next_u64();
            m = static_cast<__uint128_t>(x) * bound;
            low = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

double
Rng::next_double()
{
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool
Rng::next_bool(double p)
{
    return next_double() < p;
}

}  // namespace anvil
