#include "common/stats.hh"

#include <cmath>

namespace anvil {

void
RunningStat::add(double x)
{
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
RunningStat::min() const
{
    return count_ > 0 ? min_ : 0.0;
}

double
RunningStat::max() const
{
    return count_ > 0 ? max_ : 0.0;
}

double
RunningStat::variance() const
{
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

}  // namespace anvil
