/**
 * @file
 * Statistics collection utilities used across the characterization and
 * evaluation benches (running moments, histograms, percentiles, and
 * per-generation time series).
 */

#ifndef GENESYS_COMMON_STATS_HH
#define GENESYS_COMMON_STATS_HH

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

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

/**
 * Fixed-bin histogram over [lo, hi); samples outside the range are
 * clamped into the first/last bin. Used to plot the "relative
 * frequency" distributions of Fig 5.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, size_t bins);

    void add(double x);

    size_t bins() const { return counts_.size(); }
    size_t countAt(size_t bin) const { return counts_[bin]; }
    size_t total() const { return total_; }
    /** Relative frequency of a bin (0 when empty). */
    double frequencyAt(size_t bin) const;
    /** Center value of a bin. */
    double binCenter(size_t bin) const;
    double lo() const { return lo_; }
    double hi() const { return hi_; }

  private:
    double lo_;
    double hi_;
    std::vector<size_t> counts_;
    size_t total_ = 0;
};

/** Percentile (linear interpolation) of an unsorted sample vector. */
double percentile(std::vector<double> samples, double p);

/** Arithmetic mean of a vector (0 for empty input). */
double mean(const std::vector<double> &v);

/** Geometric mean; all inputs must be > 0. */
double geomean(const std::vector<double> &v);

/**
 * A named time series (value per generation), with helpers to merge
 * multiple runs into mean/max envelopes as in Fig 4(a).
 */
struct Series
{
    std::string name;
    std::vector<double> values;
};

/** Element-wise mean of several series (ragged lengths allowed). */
Series meanSeries(const std::vector<Series> &runs, const std::string &name);

/** Element-wise max of several series (ragged lengths allowed). */
Series maxSeries(const std::vector<Series> &runs, const std::string &name);

} // namespace genesys

#endif // GENESYS_COMMON_STATS_HH
