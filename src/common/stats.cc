#include "common/stats.hh"

#include <algorithm>
#include <cmath>

namespace genesys
{

void
RunningStat::add(double x)
{
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double delta = other.mean_ - mean_;
    const size_t n = n_ + other.n_;
    m2_ += other.m2_ +
           delta * delta * static_cast<double>(n_) *
               static_cast<double>(other.n_) / static_cast<double>(n);
    mean_ = (mean_ * static_cast<double>(n_) +
             other.mean_ * static_cast<double>(other.n_)) /
            static_cast<double>(n);
    n_ = n;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
RunningStat::stdev() const
{
    return std::sqrt(variance());
}

} // namespace genesys
