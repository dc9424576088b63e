/**
 * @file
 * CPPN / HyperNEAT-style indirect encoding.
 *
 * Section III-D1 notes that NEAT genomes "cannot be encoded as
 * efficiently as convolutional neural networks" and points at
 * HyperNEAT [16] as the mechanism "to encode the genomes more
 * efficiently, which can be leveraged if need be". This module
 * implements that option: a small Compositional Pattern Producing
 * Network (an ordinary NEAT genome with a geometry-friendly
 * activation set) is queried over substrate coordinates to *generate*
 * the weights of a much larger phenotype network. On GeneSys this
 * shrinks the Genome Buffer image of a policy from
 * O(connections) to O(CPPN genes).
 */

#ifndef GENESYS_NN_CPPN_HH
#define GENESYS_NN_CPPN_HH

#include <vector>

#include "neat/genome.hh"

namespace genesys::nn
{

using neat::Activation;
using neat::ConnectionGene;
using neat::NeatConfig;
using neat::NodeGene;
using neat::Genome;

/** Geometry of the generated (phenotype) network. */
struct SubstrateConfig
{
    int inputs = 2;
    int outputs = 1;
    /** Sizes of hidden layers between input and output sheets. */
    std::vector<int> hiddenLayers{};
    /** |CPPN output| below this expresses no connection. */
    double weightThreshold = 0.2;
    /** Expressed weights scale to +/- this magnitude. */
    double weightScale = 5.0;

    /** Total substrate nodes (excluding inputs). */
    int phenotypeNodes() const;
    /** Dense connection count between adjacent sheets. */
    long densePotentialConnections() const;
};

/**
 * NEAT configuration for evolving CPPNs: 4 inputs (x1, y1, x2, y2),
 * 1 weight output, and the classic CPPN activation palette
 * (sin / gauss / sigmoid / abs / identity) enabled for mutation.
 */
NeatConfig cppnNeatConfig();

/** (x, y) coordinate of every substrate node, by layer. */
struct SubstrateLayout
{
    /** layout[layer][i] = (x, y) in [-1,1]^2. */
    std::vector<std::vector<std::pair<double, double>>> layers;
};

/** Evenly spaced layered layout for a substrate. */
SubstrateLayout substrateLayout(const SubstrateConfig &sub);

/**
 * Expand a CPPN genome into a direct phenotype genome: for every
 * adjacent-sheet node pair, query the CPPN at (x1, y1, x2, y2); if
 * the response magnitude exceeds the threshold, express a connection
 * whose weight is the scaled remainder (standard HyperNEAT rule).
 * The result is an ordinary genome, compiled and scheduled on ADAM
 * like any other.
 */
Genome expandCppn(const Genome &cppn, const NeatConfig &cppn_cfg,
                  const SubstrateConfig &sub);

/** Genome Buffer bytes of the CPPN itself (the stored form). */
long cppnStoredBytes(const Genome &cppn);

/** Genome Buffer bytes of the expanded phenotype (direct encoding). */
long phenotypeStoredBytes(const Genome &phenotype);

} // namespace genesys::nn

#endif // GENESYS_NN_CPPN_HH
