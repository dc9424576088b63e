/**
 * @file
 * Node input-aggregation functions; stored in a 3-bit gene field
 * (Fig 6), so at most 8 entries.
 */

#ifndef GENESYS_NEAT_AGGREGATIONS_HH
#define GENESYS_NEAT_AGGREGATIONS_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace genesys::neat
{

/** Aggregation selector, encodable in the 3-bit gene field. */
enum class Aggregation : uint8_t
{
    Sum = 0,
    Product,
    Max,
    Min,
    Mean,
    Median,
    MaxAbs,
    NumAggregations,
};

/** Apply an aggregation over weighted inputs; empty input yields 0. */
double aggregate(Aggregation a, const std::vector<double> &inputs);

/**
 * As aggregate(), over a caller scratch buffer it may reorder: Median
 * sorts `inputs` in place instead of a copy, so the compiled kernels
 * aggregate without allocating. Same result bits as aggregate().
 */
double aggregateInPlace(Aggregation a, std::span<double> inputs);

/** Human-readable name (e.g. "sum"). */
const std::string &aggregationName(Aggregation a);

/** Parse a name back to the enum; throws on unknown names. */
Aggregation aggregationFromName(const std::string &name);

} // namespace genesys::neat

#endif // GENESYS_NEAT_AGGREGATIONS_HH
