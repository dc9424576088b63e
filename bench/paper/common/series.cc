#include "common/series.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace genesys
{

double
percentile(std::vector<double> samples, double p)
{
    GENESYS_ASSERT(!samples.empty(), "percentile of empty sample set");
    GENESYS_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range");
    std::sort(samples.begin(), samples.end());
    if (samples.size() == 1)
        return samples.front();
    const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(rank));
    const auto hi = static_cast<size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

namespace
{

Series
combineSeries(const std::vector<Series> &runs, bool take_max)
{
    size_t longest = 0;
    for (const auto &r : runs)
        longest = std::max(longest, r.size());
    Series out(longest, 0.0);
    std::vector<size_t> counts(longest, 0);
    for (const auto &r : runs) {
        for (size_t i = 0; i < r.size(); ++i) {
            if (take_max) {
                out[i] = counts[i] == 0 ? r[i] : std::max(out[i], r[i]);
            } else {
                out[i] += r[i];
            }
            ++counts[i];
        }
    }
    if (!take_max) {
        for (size_t i = 0; i < longest; ++i) {
            if (counts[i] > 0)
                out[i] /= static_cast<double>(counts[i]);
        }
    }
    return out;
}

} // namespace

Series
meanSeries(const std::vector<Series> &runs)
{
    return combineSeries(runs, false);
}

Series
maxSeries(const std::vector<Series> &runs)
{
    return combineSeries(runs, true);
}

} // namespace genesys
