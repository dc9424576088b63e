/**
 * @file
 * Tests for genome construction, crossover and compatibility
 * distance.
 */

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "neat/create_new.hh"
#include "neat/genome.hh"

using namespace genesys;
using namespace genesys::neat;

namespace
{

NeatConfig
smallConfig()
{
    NeatConfig cfg;
    cfg.numInputs = 3;
    cfg.numOutputs = 2;
    return cfg;
}

void
expectSameGenes(const Genome &got, const Genome &want)
{
    ASSERT_EQ(got.nodes().keys(), want.nodes().keys());
    for (size_t i = 0; i < got.numNodeGenes(); ++i) {
        const NodeGene &a = got.nodes().valueAt(i);
        const NodeGene &b = want.nodes().valueAt(i);
        EXPECT_EQ(a.key, b.key);
        EXPECT_EQ(std::bit_cast<uint64_t>(a.bias),
                  std::bit_cast<uint64_t>(b.bias));
        EXPECT_EQ(std::bit_cast<uint64_t>(a.response),
                  std::bit_cast<uint64_t>(b.response));
        EXPECT_EQ(a.activation, b.activation);
        EXPECT_EQ(a.aggregation, b.aggregation);
    }
    ASSERT_EQ(got.connections().keys(), want.connections().keys());
    for (size_t i = 0; i < got.numConnectionGenes(); ++i) {
        const ConnectionGene &a = got.connections().valueAt(i);
        const ConnectionGene &b = want.connections().valueAt(i);
        EXPECT_EQ(a.key, b.key);
        EXPECT_EQ(std::bit_cast<uint64_t>(a.weight),
                  std::bit_cast<uint64_t>(b.weight));
        EXPECT_EQ(a.enabled, b.enabled);
    }
}

} // namespace

TEST(Genome, InputOutputKeys)
{
    const auto cfg = smallConfig();
    EXPECT_EQ(Genome::inputKeys(cfg), (std::vector<int>{-1, -2, -3}));
    EXPECT_EQ(Genome::outputKeys(cfg), (std::vector<int>{0, 1}));
}

TEST(Genome, CreateNewFullDirect)
{
    const auto cfg = smallConfig();
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(1);
    const auto g = Genome::createNew(9, cfg, idx, rng);
    EXPECT_EQ(g.key(), 9);
    EXPECT_EQ(g.numNodeGenes(), 2u);      // outputs only
    EXPECT_EQ(g.numConnectionGenes(), 6u); // 3 inputs x 2 outputs
    EXPECT_EQ(g.numGenes(), 8u);
    EXPECT_EQ(g.memoryBytes(), 64u); // 8 genes x 8 B
    g.validate(cfg);
}

TEST(Genome, CreateNewWithHiddenNodesIsWired)
{
    auto cfg = smallConfig();
    cfg.numHidden = 2;
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(4);
    const auto g = Genome::createNew(0, cfg, idx, rng);
    EXPECT_EQ(g.numNodeGenes(), 4u); // 2 outputs + 2 hidden
    // full direct + (in->hidden) + (hidden->out)
    EXPECT_EQ(g.numConnectionGenes(),
              6u + 2u * 3u + 2u * 2u);
    g.validate(cfg);
}

TEST(Genome, CreateNewMatchesSortedConstruction)
{
    // createNew writes each connection into its closed-form slot and
    // skips the Box-Muller math of zero-stdev attributes; the result
    // must be the genome the draw-collect-sort oracle builds with
    // every variate drawn, down to the bits, and leave the RNG and
    // the node indexer where it leaves them.
    for (int hidden : {0, 2}) {
        // Stdev 1 draws every weight; stdev 0 with mean 0, as
        // configForEnvironment sets it, skips them all; mean -0.0 must
        // not be skipped.
        for (double weight_mean : {0.0, -0.0, 0.75}) {
            for (double weight_stdev : {1.0, 0.0}) {
                SCOPED_TRACE("numHidden " + std::to_string(hidden) +
                             ", weight N(" + std::to_string(weight_mean) +
                             ", " + std::to_string(weight_stdev) + ")");
                NeatConfig cfg;
                cfg.numInputs = 24;
                cfg.numOutputs = 5;
                cfg.numHidden = hidden;
                cfg.weight.initMean = weight_mean;
                cfg.weight.initStdev = weight_stdev;
                XorWow rng(100 + static_cast<uint64_t>(hidden));
                XorWow ref_rng = rng;
                NodeIndexer idx(cfg.numOutputs), ref_idx(cfg.numOutputs);
                for (int k = 0; k < 3; ++k) {
                    const Genome got = Genome::createNew(k, cfg, idx, rng);
                    const Genome want =
                        oracle::createNew(k, cfg, ref_idx, ref_rng);
                    expectSameGenes(got, want);
                    got.validate(cfg);
                }
                const XorWowState a = rng.saveState();
                const XorWowState b = ref_rng.saveState();
                for (int i = 0; i < 5; ++i)
                    EXPECT_EQ(a.state[i], b.state[i]);
                EXPECT_EQ(a.weyl, b.weyl);
                EXPECT_EQ(a.hasCachedGaussian, b.hasCachedGaussian);
                EXPECT_EQ(std::bit_cast<uint64_t>(a.cachedGaussian),
                          std::bit_cast<uint64_t>(b.cachedGaussian));
                EXPECT_EQ(idx.peek(), ref_idx.peek());
            }
        }
    }
}

TEST(Genome, CrossoverHomologousKeysOnlyFromFitter)
{
    const auto cfg = smallConfig();
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(5);
    auto p1 = Genome::createNew(1, cfg, idx, rng);
    auto p2 = Genome::createNew(2, cfg, idx, rng);

    // Give p1 an extra (disjoint) node+connection.
    const int extra = idx.next();
    p1.mutableNodes().emplace(extra, NodeGene::createNew(extra, cfg, rng));
    ConnectionGene cg;
    cg.key = {-1, extra};
    p1.mutableConnections().emplace(cg.key, cg);
    // And p2 one of its own, which must NOT be inherited.
    const int extra2 = idx.next();
    p2.mutableNodes().emplace(extra2,
                              NodeGene::createNew(extra2, cfg, rng));

    MutationCounts counts;
    const auto child = Genome::crossover(7, p1, p2, rng, &counts);
    EXPECT_EQ(child.key(), 7);
    EXPECT_TRUE(child.nodes().count(extra));
    EXPECT_FALSE(child.nodes().count(extra2));
    EXPECT_TRUE(child.connections().count(ConnKey{-1, extra}));
    // All of p1's keys present.
    EXPECT_EQ(child.numGenes(), p1.numGenes());
    // 8 homologous genes (2 nodes + 6 conns), 2 disjoint clones.
    EXPECT_EQ(counts.crossoverOps, 8);
    EXPECT_EQ(counts.cloneOps, 2);
}

TEST(Genome, CrossoverAttributeValuesComeFromParents)
{
    auto cfg = smallConfig();
    cfg.weight.initStdev = 0.0;
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(6);
    auto p1 = Genome::createNew(1, cfg, idx, rng);
    auto p2 = Genome::createNew(2, cfg, idx, rng);
    for (auto &&[k, c] : p1.mutableConnections())
        c.weight = 5.0;
    for (auto &&[k, c] : p2.mutableConnections())
        c.weight = -5.0;
    const auto child = Genome::crossover(3, p1, p2, rng);
    for (const auto &[k, c] : child.connections())
        EXPECT_TRUE(c.weight == 5.0 || c.weight == -5.0);
}

TEST(Genome, DistanceZeroToSelf)
{
    const auto cfg = smallConfig();
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(7);
    const auto g = Genome::createNew(0, cfg, idx, rng);
    EXPECT_DOUBLE_EQ(g.distance(g, cfg), 0.0);
}

TEST(Genome, DistanceSymmetric)
{
    const auto cfg = smallConfig();
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(8);
    const auto a = Genome::createNew(0, cfg, idx, rng);
    const auto b = Genome::createNew(1, cfg, idx, rng);
    EXPECT_DOUBLE_EQ(a.distance(b, cfg), b.distance(a, cfg));
}

TEST(Genome, DistanceCountsDisjointGenes)
{
    auto cfg = smallConfig();
    cfg.compatibilityDisjointCoefficient = 1.0;
    cfg.compatibilityWeightCoefficient = 0.0;
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(9);
    auto a = Genome::createNew(0, cfg, idx, rng);
    auto b = a;
    b.setKey(1);
    EXPECT_DOUBLE_EQ(a.distance(b, cfg), 0.0);

    const int extra = idx.next();
    b.mutableNodes().emplace(extra, NodeGene::createNew(extra, cfg, rng));
    // One disjoint node out of max(2,3) nodes.
    EXPECT_NEAR(a.distance(b, cfg), 1.0 / 3.0, 1e-12);
}

TEST(Genome, DistanceWeightCoefficientScalesHomologous)
{
    auto cfg = smallConfig();
    cfg.compatibilityWeightCoefficient = 0.5;
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(10);
    auto a = Genome::createNew(0, cfg, idx, rng);
    auto b = a;
    b.setKey(1);
    for (auto &&[k, c] : b.mutableConnections())
        c.weight += 2.0;
    // 6 connections each with |dw|=2 * 0.5 coeff / 6 genes = 1.0.
    EXPECT_NEAR(a.distance(b, cfg), 1.0, 1e-9);
}

TEST(Genome, CreatesCycleDetection)
{
    ConnGeneMap conns;
    auto add = [&conns](int a, int b) {
        ConnectionGene g;
        g.key = {a, b};
        conns.emplace(g.key, g);
    };
    add(-1, 1);
    add(1, 2);
    add(2, 0);
    EXPECT_TRUE(Genome::createsCycle(conns, {0, 1}));  // 1->2->0->1
    EXPECT_TRUE(Genome::createsCycle(conns, {2, 1}));  // 1->2->1
    EXPECT_TRUE(Genome::createsCycle(conns, {1, 1}));  // self loop
    EXPECT_FALSE(Genome::createsCycle(conns, {-1, 2}));
    EXPECT_FALSE(Genome::createsCycle(conns, {1, 0}));
}

TEST(Genome, ValidateCatchesDanglingConnection)
{
    const auto cfg = smallConfig();
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(11);
    auto g = Genome::createNew(0, cfg, idx, rng);
    ConnectionGene bad;
    bad.key = {57, 0}; // source node 57 does not exist
    g.mutableConnections().emplace(bad.key, bad);
    EXPECT_ANY_THROW(g.validate(cfg));
}

TEST(Genome, ValidateCatchesMissingOutput)
{
    const auto cfg = smallConfig();
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(12);
    auto g = Genome::createNew(0, cfg, idx, rng);
    // Remove output node 1 and its connections.
    g.mutableNodes().erase(1);
    for (auto it = g.mutableConnections().begin();
         it != g.mutableConnections().end();) {
        it = it->first.second == 1 ? g.mutableConnections().erase(it)
                                   : ++it;
    }
    EXPECT_ANY_THROW(g.validate(cfg));
}

TEST(NodeIndexerTest, IssuesMonotonicallyAndBumps)
{
    NodeIndexer idx(5);
    EXPECT_EQ(idx.next(), 5);
    EXPECT_EQ(idx.next(), 6);
    idx.bump(10);
    EXPECT_EQ(idx.next(), 11);
    idx.bump(3); // no-op, already past
    EXPECT_EQ(idx.next(), 12);
}
