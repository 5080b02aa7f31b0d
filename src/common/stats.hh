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

/** Simple monotonically increasing event counter. */
class Counter
{
  public:
    void increment(std::uint64_t by = 1) { value_ += by; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Running summary statistics (count / mean / min / max / stddev) computed
 * with Welford's online algorithm, so no samples are stored.
 */
class RunningStat
{
  public:
    void add(double x);
    void reset();

    /**
     * Folds another RunningStat in, as if its samples had been added to
     * this one (parallel Welford combination, Chan et al.). Used to
     * aggregate per-trial statistics across an experiment sweep; the
     * result is independent of how samples were partitioned, up to
     * floating-point rounding, and exactly deterministic for a fixed
     * merge order.
     */
    void merge(const RunningStat &other);

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
