/**
 * @file
 * Lightweight statistics primitives used across the simulator.
 */
#ifndef ANVIL_COMMON_STATS_HH
#define ANVIL_COMMON_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace anvil {

/**
 * Running summary statistics (count / mean / min / max / stddev) computed
 * with Welford's online algorithm, so no samples are stored.
 */
class RunningStat
{
  public:
    void add(double x);

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ > 0 ? mean_ : 0.0; }
    double min() const;
    double max() const;
    double variance() const;
    double stddev() const;
    double sum() const { return sum_; }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** A labelled scalar for report output. */
struct NamedValue {
    std::string name;
    double value;
};

}  // namespace anvil

#endif  // ANVIL_COMMON_STATS_HH
