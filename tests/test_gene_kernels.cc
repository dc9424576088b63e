/**
 * @file
 * Differential fuzz of the gene-stream kernels against their branchy
 * reference forms (tests/oracle/neat/gene_kernels.hh). The library's
 * crossover picks attributes through bit masks, its perturbation pass
 * branches once per float attribute, its distance adds 0.0 or 1.0 for
 * a mismatch, and its crossover merge counts the aligned stream. None
 * of that may change a bit: on every parent pair the child genes,
 * MutationCounts, aligned length and the full RNG state (gaussian
 * cache included) must equal the oracle's after every call, and the
 * compatibility distance must be bit-equal.
 *
 * The pairs cover 4- and 128-input shapes; parent2 sharing all, some
 * or none of parent1's keys; attribute values of ±0.0, ±inf, NaN and
 * subnormals; gene-level crossover with bias_toward_self 0, 0.5, 0.9
 * and 1; and attribute specs whose rates are zero, one, negative or
 * NaN.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "neat/gene_kernels.hh"
#include "neat/genome.hh"

using namespace genesys;
using namespace genesys::neat;

namespace
{

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

/** Sharing of parent2's keys with parent1's. */
enum class Overlap
{
    All,
    Some,
    None,
};

/** A random double: mostly gaussian, often one of the special values. */
double
drawValue(XorWow &rng)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    constexpr double sub = std::numeric_limits<double>::denorm_min();
    constexpr double specials[] = {
        0.0,  -0.0,      inf,          -inf,         nan,
        -nan, sub,       -sub,         sub * 12345.0, -sub * 999.0,
        1e-310, 30.0,    -30.0,        45.0,         -1e300,
    };
    if (rng.uniform() < 0.3)
        return specials[rng.uniformInt(std::size(specials))];
    return rng.gaussian() * 3.0;
}

NodeGene
drawNode(int key, XorWow &rng)
{
    NodeGene g;
    g.key = key;
    g.bias = drawValue(rng);
    g.response = drawValue(rng);
    g.activation = static_cast<Activation>(rng.uniformInt(3));
    g.aggregation = static_cast<Aggregation>(rng.uniformInt(2));
    return g;
}

ConnectionGene
drawConn(ConnKey key, XorWow &rng)
{
    ConnectionGene g;
    g.key = key;
    g.weight = drawValue(rng);
    g.enabled = rng.bernoulli(0.7);
    return g;
}

/**
 * Node keys are drawn from [key_base, key_base + key_range); sources
 * from the input pins and those nodes. The gene maps need not form a
 * valid network: the kernels only merge and transform gene streams.
 */
Genome
drawGenome(int num_inputs, int key_base, int key_range, double density,
           XorWow &rng)
{
    Genome g(0);
    for (int k = key_base; k < key_base + key_range; ++k) {
        if (rng.uniform() < density)
            g.mutableNodes().emplace(k, drawNode(k, rng));
    }
    const int conn_draws = (num_inputs + key_range) * 3;
    for (int c = 0; c < conn_draws; ++c) {
        const int src_index = static_cast<int>(
            rng.uniformInt(static_cast<uint32_t>(num_inputs + key_range)));
        const int src = src_index < num_inputs
                            ? -src_index - 1
                            : key_base + src_index - num_inputs;
        const int dst = key_base + static_cast<int>(rng.uniformInt(
                                       static_cast<uint32_t>(key_range)));
        const ConnKey key{src, dst};
        g.mutableConnections().emplace(key, drawConn(key, rng));
    }
    return g;
}

/** parent2 for `p1`: same keys, a mix, or disjoint keys. */
Genome
drawPartner(const Genome &p1, int num_inputs, int key_range,
            Overlap overlap, XorWow &rng)
{
    if (overlap == Overlap::None)
        return drawGenome(num_inputs, key_range, key_range, 0.6, rng);
    Genome g(1);
    const double keep = overlap == Overlap::All ? 1.0 : 0.6;
    for (int k : p1.nodes().keys()) {
        if (rng.uniform() < keep)
            g.mutableNodes().emplace(k, drawNode(k, rng));
    }
    for (const ConnKey &k : p1.connections().keys()) {
        if (rng.uniform() < keep)
            g.mutableConnections().emplace(k, drawConn(k, rng));
    }
    if (overlap == Overlap::Some) {
        const Genome extra =
            drawGenome(num_inputs, 0, key_range + 4, 0.3, rng);
        for (const auto &[k, ng] : extra.nodes())
            g.mutableNodes().emplace(k, ng);
        for (const auto &[k, cg] : extra.connections())
            g.mutableConnections().emplace(k, cg);
    }
    return g;
}

/** Attribute specs for one trial: defaults, or rates off the usual. */
NeatConfig
drawConfig(XorWow &rng, int num_inputs)
{
    NeatConfig cfg;
    cfg.numInputs = num_inputs;
    cfg.activation.options = {Activation::Sigmoid, Activation::Tanh,
                              Activation::ReLU};
    cfg.activation.mutateRate = 0.2;
    cfg.aggregation.options = {Aggregation::Sum, Aggregation::Product};
    cfg.aggregation.mutateRate = 0.1;
    cfg.enabled.mutateRate = 0.3;
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    // (mutateRate, replaceRate, mutatePower) triples; power 0 makes
    // the perturbation -0.0 for a negative gaussian, so a kernel that
    // dropped the `0.0 +` would turn -0.0 into a different bit.
    constexpr double specs[][3] = {
        {0.8, 0.1, 0.5},  {0.5, 0.5, 0.0}, {0.0, 1.0, 0.5},
        {1.0, 0.0, 0.0},  {0.3, -0.2, 1.0}, {0.6, nan, 0.5},
        {nan, 0.4, 0.5},  {0.0, 0.0, 0.5},  {0.7, 0.2, -0.0},
    };
    FloatAttributeSpec *attrs[] = {&cfg.bias, &cfg.response, &cfg.weight};
    for (FloatAttributeSpec *a : attrs) {
        const auto &s = specs[rng.uniformInt(std::size(specs))];
        a->mutateRate = s[0];
        a->replaceRate = s[1];
        a->mutatePower = s[2];
        a->initMean = rng.uniform() < 0.5 ? 0.0 : -0.5;
        a->initStdev = rng.uniform() < 0.2 ? 0.0 : 1.5;
    }
    cfg.compatibilityWeightCoefficient = rng.uniform() < 0.5 ? 0.5 : 1.25;
    cfg.compatibilityDisjointCoefficient = rng.uniform() < 0.5 ? 1.0 : 0.3;
    return cfg;
}

void
expectSameNode(const NodeGene &a, const NodeGene &b, const std::string &at)
{
    EXPECT_EQ(a.key, b.key) << at;
    EXPECT_EQ(bits(a.bias), bits(b.bias)) << at;
    EXPECT_EQ(bits(a.response), bits(b.response)) << at;
    EXPECT_EQ(a.activation, b.activation) << at;
    EXPECT_EQ(a.aggregation, b.aggregation) << at;
}

void
expectSameConn(const ConnectionGene &a, const ConnectionGene &b,
               const std::string &at)
{
    EXPECT_EQ(a.key, b.key) << at;
    EXPECT_EQ(bits(a.weight), bits(b.weight)) << at;
    EXPECT_EQ(a.enabled, b.enabled) << at;
}

void
expectSameGenes(const Genome &a, const Genome &b, const std::string &at)
{
    ASSERT_EQ(a.nodes().keys(), b.nodes().keys()) << at;
    ASSERT_EQ(a.connections().keys(), b.connections().keys()) << at;
    for (size_t i = 0; i < a.numNodeGenes(); ++i)
        expectSameNode(a.nodes().valueAt(i), b.nodes().valueAt(i), at);
    for (size_t i = 0; i < a.numConnectionGenes(); ++i) {
        expectSameConn(a.connections().valueAt(i),
                       b.connections().valueAt(i), at);
    }
}

void
expectSameRng(const XorWow &a, const XorWow &b, const std::string &at)
{
    const XorWowState x = a.saveState();
    const XorWowState y = b.saveState();
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(x.state[i], y.state[i]) << at;
    EXPECT_EQ(x.weyl, y.weyl) << at;
    EXPECT_EQ(x.hasCachedGaussian, y.hasCachedGaussian) << at;
    EXPECT_EQ(bits(x.cachedGaussian), bits(y.cachedGaussian)) << at;
}

void
expectSameCounts(const MutationCounts &a, const MutationCounts &b,
                 const std::string &at)
{
    EXPECT_EQ(a.crossoverOps, b.crossoverOps) << at;
    EXPECT_EQ(a.cloneOps, b.cloneOps) << at;
    EXPECT_EQ(a.perturbOps, b.perturbOps) << at;
    EXPECT_EQ(a.addOps, b.addOps) << at;
    EXPECT_EQ(a.deleteOps, b.deleteOps) << at;
}

/** One parent pair through every kernel, library against oracle. */
void
checkPair(const Genome &p1, const Genome &p2, const NeatConfig &cfg,
          uint64_t seed, const std::string &at)
{
    XorWow lib_rng(seed);
    if (seed % 3 == 0)
        lib_rng.gaussian(); // start some streams with a cached variate
    XorWow ref_rng = lib_rng;

    // Genome crossover: genes, counts (added to what is there),
    // aligned length and stream state.
    MutationCounts lib_counts;
    lib_counts.crossoverOps = 5;
    lib_counts.addOps = 2;
    MutationCounts ref_counts = lib_counts;
    Genome lib_child(7);
    Genome ref_child(7);
    const size_t lib_len =
        Genome::crossoverInto(lib_child, p1, p2, lib_rng, &lib_counts);
    const size_t ref_len =
        oracle::crossoverInto(ref_child, p1, p2, ref_rng, &ref_counts);
    EXPECT_EQ(lib_len, ref_len) << at << " aligned length";
    expectSameGenes(lib_child, ref_child, at + " crossover");
    expectSameCounts(lib_counts, ref_counts, at + " crossover");
    expectSameRng(lib_rng, ref_rng, at + " crossover");

    // Gene-level crossover under every selection bias.
    for (double bias : {0.0, 0.5, 0.9, 1.0}) {
        const std::string where = at + " bias " + std::to_string(bias);
        mergeJoinSorted(
            p1.nodes().keys(), p2.nodes().keys(),
            [&](size_t i, size_t j) {
                const NodeGene &a = p1.nodes().valueAt(i);
                const NodeGene &b = p2.nodes().valueAt(j);
                expectSameNode(a.crossover(b, lib_rng, bias),
                               oracle::crossover(a, b, ref_rng, bias),
                               where);
            },
            [](size_t) {}, [](size_t) {});
        mergeJoinSorted(
            p1.connections().keys(), p2.connections().keys(),
            [&](size_t i, size_t j) {
                const ConnectionGene &a = p1.connections().valueAt(i);
                const ConnectionGene &b = p2.connections().valueAt(j);
                expectSameConn(a.crossover(b, lib_rng, bias),
                               oracle::crossover(a, b, ref_rng, bias),
                               where);
            },
            [](size_t) {}, [](size_t) {});
        expectSameRng(lib_rng, ref_rng, where);
    }

    // Perturbation pass over the child and over each parent's genes
    // (the parents carry the special values the child may not).
    const Genome &child = lib_child;
    for (const Genome *g : {&child, &p1, &p2}) {
        Genome lib_g = *g;
        Genome ref_g = *g;
        EXPECT_EQ(lib_g.perturb(cfg, lib_rng),
                  oracle::perturb(ref_g, cfg, ref_rng))
            << at << " perturb ops";
        expectSameGenes(lib_g, ref_g, at + " perturb");
        expectSameRng(lib_rng, ref_rng, at + " perturb");
    }

    // Compatibility distance, both ways round and against the child.
    for (const auto &[a, b] :
         {std::pair{&p1, &p2}, std::pair{&p2, &p1},
          std::pair{&p1, &child}}) {
        EXPECT_EQ(bits(a->distance(*b, cfg)),
                  bits(oracle::distance(*a, *b, cfg)))
            << at << " distance";
    }
}

} // namespace

TEST(GeneKernels, MatchOracleBitForBit)
{
    XorWow rng(20261017);
    int pairs = 0;
    for (int num_inputs : {4, 128}) {
        const int key_range = num_inputs == 4 ? 12 : 24;
        for (Overlap overlap : {Overlap::All, Overlap::Some, Overlap::None}) {
            for (int trial = 0; trial < 180; ++trial) {
                const std::string at =
                    "inputs " + std::to_string(num_inputs) + " overlap " +
                    std::to_string(static_cast<int>(overlap)) + " trial " +
                    std::to_string(trial);
                const NeatConfig cfg = drawConfig(rng, num_inputs);
                const double density = trial % 10 == 0 ? 0.0 : 0.7;
                const Genome p1 =
                    drawGenome(num_inputs, 0, key_range, density, rng);
                const Genome p2 =
                    drawPartner(p1, num_inputs, key_range, overlap, rng);
                checkPair(p1, p2, cfg, rng.next64(), at);
                ++pairs;
                if (HasFailure())
                    return;
            }
        }
    }
    EXPECT_GE(pairs, 1000);
}

TEST(GeneKernels, EmptyParentsBreedAnEmptyChild)
{
    const NeatConfig cfg;
    const Genome empty(0);
    XorWow lib_rng(5);
    XorWow ref_rng(5);
    Genome lib_child(1);
    Genome ref_child(1);
    EXPECT_EQ(Genome::crossoverInto(lib_child, empty, empty, lib_rng), 0u);
    EXPECT_EQ(oracle::crossoverInto(ref_child, empty, empty, ref_rng), 0u);
    EXPECT_EQ(lib_child.numGenes(), 0u);
    expectSameRng(lib_rng, ref_rng, "empty");
    EXPECT_EQ(bits(empty.distance(empty, cfg)),
              bits(oracle::distance(empty, empty, cfg)));
}
