/**
 * @file
 * Tests for phenotype construction: required-node analysis,
 * topological layering, and network evaluation (including the
 * levelizer that feeds ADAM).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "env/eval_fixtures.hh"
#include "nn/feedforward.hh"
#include "nn/plan_fixtures.hh"

using namespace genesys;
using namespace genesys::neat;
using namespace genesys::nn;
using oracle::ioConfig;

namespace
{

/** Hand-built genome: -1,-2 -> hidden 1 -> output 0, plus -2 -> 0. */
Genome
handGenome(const NeatConfig &cfg)
{
    Genome g(0);
    NodeGene out;
    out.key = 0;
    out.bias = 0.0;
    out.response = 1.0;
    out.activation = Activation::Identity;
    NodeGene hid = out;
    hid.key = 1;
    g.mutableNodes().emplace(0, out);
    g.mutableNodes().emplace(1, hid);

    auto conn = [](int a, int b, double w) {
        ConnectionGene c;
        c.key = {a, b};
        c.weight = w;
        c.enabled = true;
        return c;
    };
    g.mutableConnections().emplace(ConnKey{-1, 1}, conn(-1, 1, 2.0));
    g.mutableConnections().emplace(ConnKey{-2, 1}, conn(-2, 1, 3.0));
    g.mutableConnections().emplace(ConnKey{1, 0}, conn(1, 0, 0.5));
    g.mutableConnections().emplace(ConnKey{-2, 0}, conn(-2, 0, -1.0));
    g.validate(cfg);
    return g;
}

} // namespace

TEST(RequiredForOutput, PrunesDeadBranches)
{
    const auto cfg = ioConfig(2, 1);
    auto g = handGenome(cfg);
    // Dead-end hidden node 2: fed by input but feeds nothing.
    NodeGene dead;
    dead.key = 2;
    g.mutableNodes().emplace(2, dead);
    ConnectionGene c;
    c.key = {-1, 2};
    c.enabled = true;
    g.mutableConnections().emplace(c.key, c);

    const auto req = requiredForOutput(g, cfg);
    EXPECT_TRUE(req.count(0));
    EXPECT_TRUE(req.count(1));
    EXPECT_FALSE(req.count(2));
}

TEST(RequiredForOutput, DisabledConnectionsDoNotCount)
{
    const auto cfg = ioConfig(2, 1);
    auto g = handGenome(cfg);
    // Disable the only edge out of node 1 -> node 1 not required.
    g.mutableConnections().at({1, 0}).enabled = false;
    const auto req = requiredForOutput(g, cfg);
    EXPECT_FALSE(req.count(1));
}

TEST(FeedForwardLayers, TwoLayerStructure)
{
    const auto cfg = ioConfig(2, 1);
    const auto g = handGenome(cfg);
    const auto layers = feedForwardLayers(g, cfg);
    ASSERT_EQ(layers.size(), 2u);
    EXPECT_EQ(layers[0], std::vector<int>{1});
    EXPECT_EQ(layers[1], std::vector<int>{0});
}

TEST(FeedForwardLayers, DirectOnlyIsSingleLayer)
{
    const auto cfg = ioConfig(2, 1);
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(1);
    const auto g = Genome::createNew(0, cfg, idx, rng);
    const auto layers = feedForwardLayers(g, cfg);
    ASSERT_EQ(layers.size(), 1u);
    EXPECT_EQ(layers[0], std::vector<int>{0});
}

TEST(FeedForwardNetwork, EvaluatesHandGenomeExactly)
{
    const auto cfg = ioConfig(2, 1);
    const auto g = handGenome(cfg);
    const auto net = FeedForwardNetwork::create(g, cfg);
    // hidden = 2*x1 + 3*x2 ; out = 0.5*hidden - 1.0*x2
    const auto out = net.activate({1.0, 2.0});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NEAR(out[0], 0.5 * (2.0 + 6.0) - 2.0, 1e-12);
}

TEST(FeedForwardNetwork, BiasAndResponseApplied)
{
    const auto cfg = ioConfig(1, 1);
    Genome g(0);
    NodeGene out;
    out.key = 0;
    out.bias = 2.0;
    out.response = 3.0;
    out.activation = Activation::Identity;
    g.mutableNodes().emplace(0, out);
    ConnectionGene c;
    c.key = {-1, 0};
    c.weight = 4.0;
    c.enabled = true;
    g.mutableConnections().emplace(c.key, c);
    const auto net = FeedForwardNetwork::create(g, cfg);
    // out = bias + response * (w * x) = 2 + 3 * 4 * 5.
    EXPECT_NEAR(net.activate({5.0})[0], 62.0, 1e-12);
}

TEST(FeedForwardNetwork, DisabledConnectionContributesNothing)
{
    const auto cfg = ioConfig(2, 1);
    auto g = handGenome(cfg);
    g.mutableConnections().at({-2, 0}).enabled = false;
    const auto net = FeedForwardNetwork::create(g, cfg);
    const auto out = net.activate({1.0, 2.0});
    EXPECT_NEAR(out[0], 0.5 * (2.0 + 6.0), 1e-12);
}

TEST(FeedForwardNetwork, UnreachableOutputReadsZero)
{
    const auto cfg = ioConfig(2, 2);
    auto g = handGenome(cfg);
    // Output 1 exists but has no inbound connections.
    NodeGene out1;
    out1.key = 1;
    // handGenome made node 1 a hidden node; rebuild cleanly instead.
    Genome g2(0);
    NodeGene o0;
    o0.key = 0;
    o0.activation = Activation::Identity;
    NodeGene o1 = o0;
    o1.key = 1;
    g2.mutableNodes().emplace(0, o0);
    g2.mutableNodes().emplace(1, o1);
    ConnectionGene c;
    c.key = {-1, 0};
    c.weight = 1.0;
    c.enabled = true;
    g2.mutableConnections().emplace(c.key, c);
    const auto net = FeedForwardNetwork::create(g2, cfg);
    const auto out = net.activate({3.0, 0.0});
    EXPECT_NEAR(out[0], 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(out[1], 0.0);
}

TEST(FeedForwardNetwork, WrongInputCountThrows)
{
    const auto cfg = ioConfig(2, 1);
    const auto net = FeedForwardNetwork::create(handGenome(cfg), cfg);
    EXPECT_ANY_THROW(net.activate({1.0}));
}

TEST(FeedForwardNetwork, MacsPerInferenceCountsEnabledLinks)
{
    const auto cfg = ioConfig(2, 1);
    const auto net = FeedForwardNetwork::create(handGenome(cfg), cfg);
    EXPECT_EQ(net.macsPerInference(), 4);
}

TEST(FeedForwardNetwork, SigmoidOutputsBounded)
{
    const auto cfg = ioConfig(2, 1);
    const auto g = oracle::grownGenome(cfg, 20, 5);
    const auto net = FeedForwardNetwork::create(g, cfg);
    for (double x = -3; x <= 3; x += 0.7) {
        const auto out = net.activate({x, -x});
        EXPECT_GE(out[0], 0.0);
        EXPECT_LE(out[0], 1.0);
    }
}

// --- layer-structure regression (analyzeGenome rewrite) ---------------------

TEST(FeedForwardLayers, PinnedDiamondWithSkipsAndDeadBranches)
{
    // Regression pin for the one-pass analyzeGenome rewrite: a
    // diamond with a skip edge, a dead-end hidden node and a
    // never-ready hidden node. The layer structure is part of the
    // plan/interpreter slot contract, so it is pinned exactly.
    //
    //   -1 -> 1 -> 3 ---> 0        (diamond arms 1/2, join 3)
    //   -2 -> 2 ----^
    //   -1 -------------> 0        (skip edge)
    //   -2 -> 4                    (dead end: not required)
    //    5 -> 3                    (5 has no inputs: never ready...
    //                               ...and blocks nothing else)
    const auto cfg = ioConfig(2, 1);
    Genome g(0);
    for (int nk : {0, 1, 2, 3, 4, 5}) {
        NodeGene n;
        n.key = nk;
        n.activation = Activation::Identity;
        g.mutableNodes().emplace(nk, n);
    }
    auto conn = [&g](int a, int b) {
        ConnectionGene c;
        c.key = {a, b};
        c.weight = 1.0;
        g.mutableConnections().emplace(c.key, c);
    };
    conn(-1, 1);
    conn(-2, 2);
    conn(1, 3);
    conn(2, 3);
    conn(3, 0);
    conn(-1, 0);
    conn(-2, 4);
    conn(5, 3);

    const auto analysis = analyzeGenome(g, cfg);
    // 5 feeds 3, so it is required; 4 feeds nothing, so it is not.
    EXPECT_EQ(analysis.required, (std::set<int>{0, 1, 2, 3, 5}));
    // Node 5 has no inbound edges, so it never becomes ready; node 3
    // waits on it forever, and output 0 waits on 3 (the skip edge
    // alone cannot ready a node that also reads 3). Pinned: only the
    // diamond arms make it into layers.
    const std::vector<std::vector<int>> expect{{1, 2}};
    EXPECT_EQ(analysis.layers, expect);

    // Removing the blocker unblocks the full diamond shape.
    g.mutableConnections().at({5, 3}).enabled = false;
    const auto unblocked = analyzeGenome(g, cfg);
    const std::vector<std::vector<int>> expect2{{1, 2}, {3}, {0}};
    EXPECT_EQ(unblocked.layers, expect2);
    EXPECT_EQ(unblocked.required, (std::set<int>{0, 1, 2, 3}));

    // The wrappers agree with the combined analysis.
    EXPECT_EQ(feedForwardLayers(g, cfg), unblocked.layers);
    EXPECT_EQ(requiredForOutput(g, cfg), unblocked.required);
}

TEST(FeedForwardLayers, ZeroInEdgeNodesNeverLayered)
{
    // A hidden node with no enabled inbound edges must not appear in
    // any layer even though its in-degree is trivially "satisfied".
    const auto cfg = ioConfig(1, 1);
    Genome g(0);
    NodeGene out;
    out.key = 0;
    out.activation = Activation::Identity;
    NodeGene orphan = out;
    orphan.key = 1;
    g.mutableNodes().emplace(0, out);
    g.mutableNodes().emplace(1, orphan);
    ConnectionGene a;
    a.key = {-1, 0};
    a.weight = 1.0;
    g.mutableConnections().emplace(a.key, a);
    ConnectionGene b;
    b.key = {1, 0};
    b.weight = 1.0;
    b.enabled = false; // 1 -> 0 disabled: 1 is not even required
    g.mutableConnections().emplace(b.key, b);

    const auto analysis = analyzeGenome(g, cfg);
    EXPECT_EQ(analysis.layers,
              (std::vector<std::vector<int>>{{0}}));
    EXPECT_FALSE(analysis.required.count(1));
}

// --- levelize -------------------------------------------------------------

TEST(Levelize, HandGenomeDims)
{
    const auto cfg = ioConfig(2, 1);
    const auto sched = levelize(handGenome(cfg), cfg);
    ASSERT_EQ(sched.layers.size(), 2u);
    // Layer 0: node 1 fed by {-1,-2}: M=1, K=2, 2 weights.
    EXPECT_EQ(sched.layers[0].numNodes, 1);
    EXPECT_EQ(sched.layers[0].vectorLen, 2);
    EXPECT_EQ(sched.layers[0].weights, 2);
    // Layer 1: node 0 fed by {1,-2}: M=1, K=2, 2 weights.
    EXPECT_EQ(sched.layers[1].numNodes, 1);
    EXPECT_EQ(sched.layers[1].vectorLen, 2);
    EXPECT_EQ(sched.layers[1].weights, 2);
    EXPECT_EQ(sched.totalMacs(), 4);
    EXPECT_EQ(sched.totalNodes(), 2);
    EXPECT_EQ(sched.denseCells(), 4);
    EXPECT_DOUBLE_EQ(sched.meanDensity(), 1.0);
}

TEST(Levelize, MacsMatchNetwork)
{
    const auto cfg = ioConfig(2, 1);
    const auto g = oracle::grownGenome(cfg, 30, 6);
    const auto net = FeedForwardNetwork::create(g, cfg);
    const auto sched = levelize(g, cfg);
    EXPECT_EQ(sched.totalMacs(), net.macsPerInference());
}

TEST(Levelize, DensityAtMostOne)
{
    const auto cfg = ioConfig(4, 3);
    const auto g = oracle::grownGenome(cfg, 40, 7);
    const auto sched = levelize(g, cfg);
    for (const auto &l : sched.layers) {
        EXPECT_GT(l.density(), 0.0);
        EXPECT_LE(l.density(), 1.0);
    }
}
