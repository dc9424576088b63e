/**
 * @file
 * Node and connection genes (Fig 3(c): a genome is a list of genes,
 * each describing either a neuron or a synapse).
 *
 * Node genes carry {bias, response, activation, aggregation}; connection
 * genes carry {weight, enabled} and are keyed by (source, destination)
 * node ids — exactly the attribute sets the 64-bit hardware encoding in
 * Fig 6 packs.
 */

#ifndef GENESYS_NEAT_GENE_HH
#define GENESYS_NEAT_GENE_HH

#include <cmath>
#include <cstdint>
#include <utility>

#include "common/rng.hh"
#include "neat/config.hh"

namespace genesys::neat
{

/** Connection gene key: (source node id, destination node id). */
using ConnKey = std::pair<int, int>;

/**
 * A neuron gene. Input nodes are *not* represented as node genes
 * (neat-python convention): they use negative ids -1..-numInputs and
 * only appear as connection sources.
 */
struct NodeGene
{
    int key = 0;
    double bias = 0.0;
    double response = 1.0;
    Activation activation = Activation::Sigmoid;
    Aggregation aggregation = Aggregation::Sum;

    /**
     * Create with attributes drawn from the config's init specs, in
     * field order. Inline, like crossover and mutate, so a caller's
     * local generator copy stays in registers across the draws.
     */
    static NodeGene
    createNew(int key, const NeatConfig &cfg, XorWow &rng)
    {
        NodeGene g;
        g.key = key;
        g.bias = cfg.bias.initValue(rng);
        g.response = cfg.response.initValue(rng);
        g.activation = cfg.activation.initValue(rng);
        g.aggregation = cfg.aggregation.initValue(rng);
        return g;
    }

    /**
     * Homologous-gene distance used by genome compatibility
     * (|Δbias| + |Δresponse| + activation mismatch + aggregation
     * mismatch, scaled by the weight coefficient at the caller).
     * Adding 0.0 for a match is exact: the sum of two fabs() is never
     * -0.0.
     */
    double
    distance(const NodeGene &other) const
    {
        return std::fabs(bias - other.bias) +
               std::fabs(response - other.response) +
               (activation != other.activation ? 1.0 : 0.0) +
               (aggregation != other.aggregation ? 1.0 : 0.0);
    }

    /**
     * Gene-level crossover: each attribute picked uniformly from one
     * of the two parents — the hardware Crossover Engine's
     * per-attribute parent select (Fig 7). `bias_toward_self` is the
     * programmable selection bias (default 0.5). One draw per
     * attribute, in field order; each pick is a mask select, so the
     * random bits never reach a branch.
     */
    NodeGene
    crossover(const NodeGene &other, XorWow &rng,
              double bias_toward_self = 0.5) const
    {
        const bool self_bias = rng.uniform() < bias_toward_self;
        const bool self_response = rng.uniform() < bias_toward_self;
        const bool self_activation = rng.uniform() < bias_toward_self;
        const bool self_aggregation = rng.uniform() < bias_toward_self;
        NodeGene child;
        child.key = key;
        child.bias = maskSelect(self_bias, bias, other.bias);
        child.response = maskSelect(self_response, response, other.response);
        child.activation =
            maskSelect(self_activation, activation, other.activation);
        child.aggregation =
            maskSelect(self_aggregation, aggregation, other.aggregation);
        return child;
    }

    /** Attribute (non-structural) mutation per the config specs. */
    void
    mutate(const NeatConfig &cfg, XorWow &rng)
    {
        bias = cfg.bias.mutateValue(bias, rng);
        response = cfg.response.mutateValue(response, rng);
        activation = cfg.activation.mutateValue(activation, rng);
        aggregation = cfg.aggregation.mutateValue(aggregation, rng);
    }
};

/** A synapse gene, keyed by (source, destination). */
struct ConnectionGene
{
    ConnKey key{0, 0};
    double weight = 0.0;
    bool enabled = true;

    /** Create with the weight, then the enabled flag, drawn. */
    static ConnectionGene
    createNew(ConnKey key, const NeatConfig &cfg, XorWow &rng)
    {
        ConnectionGene g;
        g.key = key;
        g.weight = cfg.weight.initValue(rng);
        g.enabled = cfg.enabled.initValue(rng);
        return g;
    }

    /** |Δweight| + enabled mismatch (see NodeGene::distance). */
    double
    distance(const ConnectionGene &other) const
    {
        return std::fabs(weight - other.weight) +
               (enabled != other.enabled ? 1.0 : 0.0);
    }

    /**
     * Per-attribute uniform crossover (see NodeGene::crossover): the
     * weight draw, then the enabled draw.
     */
    ConnectionGene
    crossover(const ConnectionGene &other, XorWow &rng,
              double bias_toward_self = 0.5) const
    {
        const bool self_weight = rng.uniform() < bias_toward_self;
        const bool self_enabled = rng.uniform() < bias_toward_self;
        ConnectionGene child;
        child.key = key;
        child.weight = maskSelect(self_weight, weight, other.weight);
        child.enabled = maskSelect(self_enabled, enabled, other.enabled);
        return child;
    }

    void
    mutate(const NeatConfig &cfg, XorWow &rng)
    {
        weight = cfg.weight.mutateValue(weight, rng);
        enabled = cfg.enabled.mutateValue(enabled, rng);
    }
};

} // namespace genesys::neat

#endif // GENESYS_NEAT_GENE_HH
