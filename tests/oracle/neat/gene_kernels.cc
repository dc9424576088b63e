#include "neat/gene_kernels.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"

namespace genesys::neat::oracle
{

namespace
{

// --- gene level ------------------------------------------------------------

double
mutateFloat(const FloatAttributeSpec &spec, double v, XorWow &rng)
{
    const double r = rng.uniform();
    if (r < spec.mutateRate)
        return spec.clamp(v + rng.gaussian(0.0, spec.mutatePower));
    if (r < spec.mutateRate + spec.replaceRate)
        return spec.initValue(rng);
    return v;
}

bool
mutateBool(const BoolAttributeSpec &spec, bool v, XorWow &rng)
{
    if (spec.mutateRate > 0 && rng.bernoulli(spec.mutateRate)) {
        // neat-python re-randomizes rather than flips.
        return rng.bernoulli(0.5);
    }
    return v;
}

double
nodeDistance(const NodeGene &a, const NodeGene &b)
{
    double d = std::fabs(a.bias - b.bias) + std::fabs(a.response - b.response);
    if (a.activation != b.activation)
        d += 1.0;
    if (a.aggregation != b.aggregation)
        d += 1.0;
    return d;
}

double
connDistance(const ConnectionGene &a, const ConnectionGene &b)
{
    double d = std::fabs(a.weight - b.weight);
    if (a.enabled != b.enabled)
        d += 1.0;
    return d;
}

// --- aligned stream length ---------------------------------------------------

/** Keys of `b` absent from `a` (both arrays sorted): one merge pass. */
template <typename Key>
size_t
countMissing(const std::vector<Key> &a, const std::vector<Key> &b)
{
    size_t n = 0;
    mergeJoinSorted(
        a, b, [](size_t, size_t) {}, [](size_t) {},
        [&n](size_t) { ++n; });
    return n;
}

/** Size of the union of two genomes' gene keys (aligned stream). */
size_t
alignedStreamLength(const Genome &a, const Genome &b)
{
    return a.numNodeGenes() + a.numConnectionGenes() +
           countMissing(a.nodes().keys(), b.nodes().keys()) +
           countMissing(a.connections().keys(), b.connections().keys());
}

} // namespace

NodeGene
crossover(const NodeGene &self, const NodeGene &other, XorWow &rng,
          double bias_toward_self)
{
    NodeGene child;
    child.key = self.key;
    child.bias = rng.uniform() < bias_toward_self ? self.bias : other.bias;
    child.response =
        rng.uniform() < bias_toward_self ? self.response : other.response;
    child.activation = rng.uniform() < bias_toward_self ? self.activation
                                                         : other.activation;
    child.aggregation = rng.uniform() < bias_toward_self
                            ? self.aggregation
                            : other.aggregation;
    return child;
}

ConnectionGene
crossover(const ConnectionGene &self, const ConnectionGene &other,
          XorWow &rng, double bias_toward_self)
{
    ConnectionGene child;
    child.key = self.key;
    child.weight =
        rng.uniform() < bias_toward_self ? self.weight : other.weight;
    child.enabled =
        rng.uniform() < bias_toward_self ? self.enabled : other.enabled;
    return child;
}

size_t
crossoverInto(Genome &child, const Genome &parent1, const Genome &parent2,
              XorWow &rng, MutationCounts *counts)
{
    GENESYS_ASSERT(child.nodes().empty() && child.connections().empty(),
                   "crossover target genome " << child.key()
                                              << " already has genes");
    NodeGeneMap &child_nodes = child.mutableNodes();
    ConnGeneMap &child_conns = child.mutableConnections();
    {
        const auto &k1 = parent1.nodes().keys();
        const auto &v1 = parent1.nodes().values();
        const auto &v2 = parent2.nodes().values();
        child_nodes.reserve(k1.size());
        mergeJoinSorted(
            k1, parent2.nodes().keys(),
            [&](size_t i, size_t j) {
                child_nodes.emplace(k1[i], crossover(v1[i], v2[j], rng));
                if (counts)
                    ++counts->crossoverOps;
            },
            [&](size_t i) {
                child_nodes.emplace(k1[i], v1[i]);
                if (counts)
                    ++counts->cloneOps;
            },
            [](size_t) {});
    }
    {
        const auto &k1 = parent1.connections().keys();
        const auto &v1 = parent1.connections().values();
        const auto &v2 = parent2.connections().values();
        child_conns.reserve(k1.size());
        mergeJoinSorted(
            k1, parent2.connections().keys(),
            [&](size_t i, size_t j) {
                child_conns.emplace(k1[i], crossover(v1[i], v2[j], rng));
                if (counts)
                    ++counts->crossoverOps;
            },
            [&](size_t i) {
                child_conns.emplace(k1[i], v1[i]);
                if (counts)
                    ++counts->cloneOps;
            },
            [](size_t) {});
    }
    return alignedStreamLength(parent1, parent2);
}

long
perturb(Genome &genome, const NeatConfig &cfg, XorWow &rng)
{
    long ops = 0;
    for (NodeGene &ng : genome.mutableNodes().mutableValues()) {
        ng.bias = mutateFloat(cfg.bias, ng.bias, rng);
        ng.response = mutateFloat(cfg.response, ng.response, rng);
        ng.activation = cfg.activation.mutateValue(ng.activation, rng);
        ng.aggregation = cfg.aggregation.mutateValue(ng.aggregation, rng);
        ++ops;
    }
    for (ConnectionGene &cg : genome.mutableConnections().mutableValues()) {
        cg.weight = mutateFloat(cfg.weight, cg.weight, rng);
        cg.enabled = mutateBool(cfg.enabled, cg.enabled, rng);
        ++ops;
    }
    return ops;
}

double
distance(const Genome &a, const Genome &b, const NeatConfig &cfg)
{
    double node_distance = 0.0;
    if (!a.nodes().empty() || !b.nodes().empty()) {
        long disjoint = 0;
        double d = 0.0;
        const auto &va = a.nodes().values();
        const auto &vb = b.nodes().values();
        mergeJoinSorted(
            a.nodes().keys(), b.nodes().keys(),
            [&](size_t i, size_t j) {
                d += nodeDistance(va[i], vb[j]) *
                     cfg.compatibilityWeightCoefficient;
            },
            [&](size_t) { ++disjoint; }, [&](size_t) { ++disjoint; });
        const double max_nodes = static_cast<double>(
            std::max(a.nodes().size(), b.nodes().size()));
        node_distance =
            (d + cfg.compatibilityDisjointCoefficient *
                     static_cast<double>(disjoint)) /
            max_nodes;
    }

    double conn_distance = 0.0;
    if (!a.connections().empty() || !b.connections().empty()) {
        long disjoint = 0;
        double d = 0.0;
        const auto &va = a.connections().values();
        const auto &vb = b.connections().values();
        mergeJoinSorted(
            a.connections().keys(), b.connections().keys(),
            [&](size_t i, size_t j) {
                d += connDistance(va[i], vb[j]) *
                     cfg.compatibilityWeightCoefficient;
            },
            [&](size_t) { ++disjoint; }, [&](size_t) { ++disjoint; });
        const double max_conns = static_cast<double>(
            std::max(a.connections().size(), b.connections().size()));
        conn_distance =
            (d + cfg.compatibilityDisjointCoefficient *
                     static_cast<double>(disjoint)) /
            max_conns;
    }
    return node_distance + conn_distance;
}

} // namespace genesys::neat::oracle
