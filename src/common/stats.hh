/**
 * @file
 * Single-pass running moments, the accumulator behind the telemetry
 * histograms (obs/metrics.hh).
 */

#ifndef GENESYS_COMMON_STATS_HH
#define GENESYS_COMMON_STATS_HH

#include <cstddef>
#include <limits>

namespace genesys
{

/**
 * Single-pass running statistics (Welford's algorithm) with min/max.
 */
class RunningStat
{
  public:
    RunningStat() = default;

    /** Add one sample. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const RunningStat &other);

    size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Population variance. */
    double variance() const { return n_ ? m2_ / n_ : 0.0; }
    double stdev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return sum_; }

  private:
    size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace genesys

#endif // GENESYS_COMMON_STATS_HH
