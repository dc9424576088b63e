/**
 * @file
 * Tests for the structural mutation operators and their invariants
 * (Fig 3(d)), including parameterized property sweeps: after any
 * sequence of mutations the genome must remain structurally valid
 * and, when configured feed-forward, acyclic.
 */

#include <gtest/gtest.h>

#include "neat/genome.hh"

using namespace genesys;
using namespace genesys::neat;

namespace
{

NeatConfig
mutConfig()
{
    NeatConfig cfg;
    cfg.numInputs = 3;
    cfg.numOutputs = 2;
    return cfg;
}

} // namespace

TEST(MutateAddNode, SplitsAConnection)
{
    const auto cfg = mutConfig();
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(1);
    auto g = Genome::createNew(0, cfg, idx, rng);
    const size_t conns_before = g.numConnectionGenes();
    const size_t enabled_before = g.numEnabledConnections();

    const int nk = g.mutateAddNode(cfg, idx, rng);
    ASSERT_GE(nk, cfg.numOutputs);
    EXPECT_TRUE(g.nodes().count(nk));
    EXPECT_EQ(g.numConnectionGenes(), conns_before + 2);
    // One connection disabled, two enabled ones added.
    EXPECT_EQ(g.numEnabledConnections(), enabled_before + 1);
    g.validate(cfg);

    // The two new connections route through the new node.
    EXPECT_TRUE(std::any_of(
        g.connections().begin(), g.connections().end(),
        [nk](const auto &kv) { return kv.first.second == nk; }));
    EXPECT_TRUE(std::any_of(
        g.connections().begin(), g.connections().end(),
        [nk](const auto &kv) { return kv.first.first == nk; }));
}

TEST(MutateAddNode, SplitPreservesPathWeights)
{
    const auto cfg = mutConfig();
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(2);
    auto g = Genome::createNew(0, cfg, idx, rng);
    // Find which connection gets split by comparing before/after.
    auto before = g.connections();
    const int nk = g.mutateAddNode(cfg, idx, rng);
    ASSERT_GE(nk, 0);
    for (const auto &[ck, cg] : g.connections()) {
        if (ck.second == nk) {
            EXPECT_DOUBLE_EQ(cg.weight, 1.0); // in -> new
        }
        if (ck.first == nk) {
            const ConnKey orig{
                [&] {
                    for (const auto &[k2, c2] : g.connections()) {
                        if (k2.second == nk)
                            return k2.first;
                    }
                    return 0;
                }(),
                ck.second};
            ASSERT_TRUE(before.count(orig));
            EXPECT_DOUBLE_EQ(cg.weight, before.at(orig).weight);
        }
    }
}

TEST(MutateAddNode, FailsOnEmptyConnections)
{
    auto cfg = mutConfig();
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(3);
    auto g = Genome::createNew(0, cfg, idx, rng);
    g.mutableConnections().clear();
    EXPECT_EQ(g.mutateAddNode(cfg, idx, rng), -1);
}

TEST(MutateAddConnection, AddsValidEdge)
{
    auto cfg = mutConfig();
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(4);
    auto g = Genome::createNew(0, cfg, idx, rng);
    g.mutableConnections().clear();
    int added = 0;
    for (int i = 0; i < 50; ++i) {
        if (g.mutateAddConnection(cfg, rng))
            ++added;
        g.validate(cfg);
    }
    EXPECT_GT(added, 0);
    EXPECT_EQ(g.numConnectionGenes(), static_cast<size_t>(added));
}

TEST(MutateAddConnection, NeverCreatesCycleWhenFeedForward)
{
    auto cfg = mutConfig();
    cfg.feedForward = true;
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(5);
    auto g = Genome::createNew(0, cfg, idx, rng);
    for (int i = 0; i < 10; ++i)
        g.mutateAddNode(cfg, idx, rng);
    for (int i = 0; i < 200; ++i)
        g.mutateAddConnection(cfg, rng);
    g.validate(cfg); // validate() checks acyclicity
}

TEST(MutateDeleteNode, RemovesNodeAndIncidentEdges)
{
    const auto cfg = mutConfig();
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(6);
    auto g = Genome::createNew(0, cfg, idx, rng);
    const int nk = g.mutateAddNode(cfg, idx, rng);
    ASSERT_GE(nk, 0);

    // Keep deleting until the hidden node is gone (choice is random).
    long removed_total = 0;
    while (g.nodes().count(nk))
        removed_total += g.mutateDeleteNode(cfg, rng);
    EXPECT_GE(removed_total, 3); // node + its two connections
    for (const auto &[ck, cg] : g.connections()) {
        EXPECT_NE(ck.first, nk);
        EXPECT_NE(ck.second, nk);
    }
    g.validate(cfg);
}

TEST(MutateDeleteNode, NeverDeletesOutputs)
{
    const auto cfg = mutConfig();
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(7);
    auto g = Genome::createNew(0, cfg, idx, rng);
    // Only outputs exist; deletion must be a no-op.
    EXPECT_EQ(g.mutateDeleteNode(cfg, rng), 0);
    EXPECT_EQ(g.numNodeGenes(), 2u);
}

TEST(MutateDeleteConnection, RemovesOne)
{
    const auto cfg = mutConfig();
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(8);
    auto g = Genome::createNew(0, cfg, idx, rng);
    const size_t before = g.numConnectionGenes();
    EXPECT_EQ(g.mutateDeleteConnection(rng), 1);
    EXPECT_EQ(g.numConnectionGenes(), before - 1);
}

TEST(MutateDeleteConnection, EmptyIsNoop)
{
    auto cfg = mutConfig();
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(9);
    auto g = Genome::createNew(0, cfg, idx, rng);
    g.mutableConnections().clear();
    EXPECT_EQ(g.mutateDeleteConnection(rng), 0);
}

TEST(Mutate, NodeDeletionThresholdHonored)
{
    auto cfg = mutConfig();
    cfg.maxNodeDeletionsPerChild = 1;
    cfg.nodeDeleteProb = 1.0;
    cfg.nodeAddProb = 0.0;
    cfg.connAddProb = 0.0;
    cfg.connDeleteProb = 0.0;
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(10);
    auto g = Genome::createNew(0, cfg, idx, rng);
    for (int i = 0; i < 5; ++i)
        g.mutateAddNode(cfg, idx, rng);
    const size_t hidden_before = g.numNodeGenes() - 2;
    ASSERT_GE(hidden_before, 2u);
    // Three mutation passes each with certain node deletion: only one
    // node may actually go (the EvE liveness threshold).
    for (int i = 0; i < 3; ++i)
        g.mutate(cfg, idx, rng);
    EXPECT_EQ(g.numNodeGenes() - 2, hidden_before - 1);
}

TEST(Mutate, CountsPerturbOpsPerGene)
{
    auto cfg = mutConfig();
    cfg.nodeAddProb = cfg.nodeDeleteProb = 0.0;
    cfg.connAddProb = cfg.connDeleteProb = 0.0;
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(11);
    auto g = Genome::createNew(0, cfg, idx, rng);
    const auto counts = g.mutate(cfg, idx, rng);
    EXPECT_EQ(counts.perturbOps, static_cast<long>(g.numGenes()));
    EXPECT_EQ(counts.addOps, 0);
    EXPECT_EQ(counts.deleteOps, 0);
}

/**
 * Property sweep: arbitrary mutation sequences keep the genome valid
 * across many seeds.
 */
class MutationFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(MutationFuzz, GenomeStaysValidUnderMutationStorm)
{
    auto cfg = mutConfig();
    cfg.nodeAddProb = 0.4;
    cfg.nodeDeleteProb = 0.3;
    cfg.connAddProb = 0.5;
    cfg.connDeleteProb = 0.3;
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(GetParam());
    auto g = Genome::createNew(0, cfg, idx, rng);
    for (int i = 0; i < 60; ++i) {
        g.mutate(cfg, idx, rng);
        g.validate(cfg);
    }
    // Outputs always intact.
    EXPECT_TRUE(g.nodes().count(0));
    EXPECT_TRUE(g.nodes().count(1));
}

TEST_P(MutationFuzz, CrossoverOfMutatedParentsIsValid)
{
    auto cfg = mutConfig();
    cfg.nodeAddProb = 0.5;
    cfg.connAddProb = 0.5;
    cfg.connDeleteProb = 0.2;
    cfg.nodeDeleteProb = 0.2;
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(GetParam() ^ 0xABCDEF);
    auto p1 = Genome::createNew(0, cfg, idx, rng);
    auto p2 = Genome::createNew(1, cfg, idx, rng);
    for (int i = 0; i < 25; ++i) {
        p1.mutate(cfg, idx, rng);
        p2.mutate(cfg, idx, rng);
    }
    auto child = Genome::crossover(2, p1, p2, rng);
    // Child inherits the fitter parent's structure exactly, so it
    // must validate too (feed-forward: a subgraph of p1's DAG).
    child.validate(cfg);
    EXPECT_EQ(child.numGenes(), p1.numGenes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89, 144, 233));
