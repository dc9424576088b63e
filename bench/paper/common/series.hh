/**
 * @file
 * Per-generation time series for the paper figures: percentiles of a
 * sample set (Fig 5) and mean/max envelopes over several runs
 * (Fig 4(a)).
 */

#ifndef GENESYS_COMMON_SERIES_HH
#define GENESYS_COMMON_SERIES_HH

#include <vector>

namespace genesys
{

/** Percentile (linear interpolation) of an unsorted sample vector. */
double percentile(std::vector<double> samples, double p);

/** One value per generation. */
using Series = std::vector<double>;

/** Element-wise mean of several series (ragged lengths allowed). */
Series meanSeries(const std::vector<Series> &runs);

/** Element-wise max of several series (ragged lengths allowed). */
Series maxSeries(const std::vector<Series> &runs);

} // namespace genesys

#endif // GENESYS_COMMON_SERIES_HH
