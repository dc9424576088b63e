#include "neat/aggregations.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.hh"

namespace genesys::neat
{

namespace
{

const std::array<std::string,
                 static_cast<size_t>(Aggregation::NumAggregations)>
    aggregationNames = {
        "sum", "product", "max", "min", "mean", "median", "maxabs",
};

/** Every aggregation but Median: a pure read of `inputs`. */
double
aggregateReadOnly(Aggregation a, std::span<const double> inputs)
{
    switch (a) {
      case Aggregation::Sum: {
        double s = 0.0;
        for (double x : inputs)
            s += x;
        return s;
      }
      case Aggregation::Product: {
        double p = 1.0;
        for (double x : inputs)
            p *= x;
        return p;
      }
      case Aggregation::Max:
        return *std::max_element(inputs.begin(), inputs.end());
      case Aggregation::Min:
        return *std::min_element(inputs.begin(), inputs.end());
      case Aggregation::Mean: {
        double s = 0.0;
        for (double x : inputs)
            s += x;
        return s / static_cast<double>(inputs.size());
      }
      case Aggregation::MaxAbs: {
        double best = inputs.front();
        for (double x : inputs) {
            if (std::fabs(x) > std::fabs(best))
                best = x;
        }
        return best;
      }
      default:
        panic("unknown aggregation");
    }
}

} // namespace

double
aggregateInPlace(Aggregation a, std::span<double> inputs)
{
    if (inputs.empty())
        return 0.0;
    if (a != Aggregation::Median)
        return aggregateReadOnly(a, inputs);
    std::sort(inputs.begin(), inputs.end());
    const size_t n = inputs.size();
    return n % 2 ? inputs[n / 2]
                 : 0.5 * (inputs[n / 2 - 1] + inputs[n / 2]);
}

double
aggregate(Aggregation a, const std::vector<double> &inputs)
{
    if (inputs.empty())
        return 0.0;
    if (a != Aggregation::Median)
        return aggregateReadOnly(a, inputs);
    std::vector<double> sorted(inputs);
    return aggregateInPlace(a, sorted);
}

const std::string &
aggregationName(Aggregation a)
{
    const auto idx = static_cast<size_t>(a);
    GENESYS_ASSERT(idx < aggregationNames.size(), "bad aggregation value");
    return aggregationNames[idx];
}

Aggregation
aggregationFromName(const std::string &name)
{
    for (size_t i = 0; i < aggregationNames.size(); ++i) {
        if (aggregationNames[i] == name)
            return static_cast<Aggregation>(i);
    }
    fatal("unknown aggregation name: " + name);
}

} // namespace genesys::neat
