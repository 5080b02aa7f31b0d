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

void
RunningStat::reset()
{
    *this = RunningStat();
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double delta = other.mean_ - mean_;
    const double n_total =
        static_cast<double>(count_) + static_cast<double>(other.count_);
    mean_ += delta * static_cast<double>(other.count_) / n_total;
    m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                           static_cast<double>(other.count_) / n_total;
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
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
