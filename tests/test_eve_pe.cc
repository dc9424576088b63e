/**
 * @file
 * Tests for the EvE PE 4-stage pipeline (Fig 7): crossover selection,
 * perturbation bounds, the delete engine's liveness threshold and
 * dangling-connection pruning, and the add engine's structural
 * validity guarantees.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "hw/eve_pe.hh"
#include "hw/gene_merge.hh"

using namespace genesys;
using namespace genesys::hw;
using genesys::neat::ConnectionGene;
using genesys::neat::NodeGene;

namespace
{

GeneCodec codec;

std::vector<GenePair>
streamFor(const neat::Genome &p1, const neat::Genome &p2,
          const neat::NeatConfig &cfg)
{
    return alignStreams(codec.encodeGenome(p1, cfg),
                        codec.encodeGenome(p2, cfg), codec);
}

neat::NeatConfig
hwConfig()
{
    neat::NeatConfig cfg;
    cfg.numInputs = 3;
    cfg.numOutputs = 2;
    return cfg;
}

neat::Genome
makeParent(const neat::NeatConfig &cfg, int key, uint64_t seed,
           int mutations = 0)
{
    neat::NodeIndexer idx(cfg.numOutputs + 100 * key);
    XorWow rng(seed);
    auto g = neat::Genome::createNew(key, cfg, idx, rng);
    for (int i = 0; i < mutations; ++i)
        g.mutate(cfg, idx, rng);
    return g;
}

/** PE config with all stochastic stages disabled. */
PeConfig
quietPe()
{
    PeConfig pe;
    pe.perturbProb = 0.0;
    pe.nodeDeleteProb = 0.0;
    pe.connDeleteProb = 0.0;
    pe.nodeAddProb = 0.0;
    pe.connAddProb = 0.0;
    return pe;
}

} // namespace

TEST(EvePe, PassThroughReproducesParent1Structure)
{
    const auto cfg = hwConfig();
    const auto p1 = makeParent(cfg, 0, 1);
    const auto p2 = makeParent(cfg, 0, 2); // same structure
    EvePe pe(codec, quietPe(), 7);
    const auto res = pe.processChild(streamFor(p1, p2, cfg));
    EXPECT_EQ(res.childGenes.size(), p1.numGenes());
    const auto child = codec.decodeGenome(res.childGenes, 9);
    child.validate(cfg);
}

TEST(EvePe, CrossoverSelectsAttributesFromBothParents)
{
    auto cfg = hwConfig();
    cfg.weight.initStdev = 0.0;
    auto p1 = makeParent(cfg, 0, 3);
    auto p2 = p1;
    for (auto &&[k, c] : p1.mutableConnections())
        c.weight = 4.0;
    for (auto &&[k, c] : p2.mutableConnections())
        c.weight = -4.0;

    EvePe pe(codec, quietPe(), 11);
    const auto res = pe.processChild(streamFor(p1, p2, cfg));
    bool saw_p1 = false, saw_p2 = false;
    for (const auto g : res.childGenes) {
        if (g.isConnection()) {
            const double w = codec.decodeConnection(g).weight;
            if (w > 0)
                saw_p1 = true;
            else
                saw_p2 = true;
        }
    }
    EXPECT_TRUE(saw_p1);
    EXPECT_TRUE(saw_p2);
    EXPECT_EQ(res.ops.crossoverOps,
              static_cast<long>(p1.numGenes()));
}

TEST(EvePe, CrossoverBiasIsProgrammable)
{
    auto cfg = hwConfig();
    auto p1 = makeParent(cfg, 0, 4);
    auto p2 = p1;
    for (auto &&[k, c] : p1.mutableConnections())
        c.weight = 4.0;
    for (auto &&[k, c] : p2.mutableConnections())
        c.weight = -4.0;

    PeConfig pcfg = quietPe();
    pcfg.crossoverBias = 1.0; // always prefer parent 1
    EvePe pe(codec, pcfg, 13);
    const auto res = pe.processChild(streamFor(p1, p2, cfg));
    for (const auto g : res.childGenes) {
        if (g.isConnection()) {
            EXPECT_GT(codec.decodeConnection(g).weight, 0.0);
        }
    }
}

TEST(EvePe, DisjointGenesClonedFromParent1)
{
    const auto cfg = hwConfig();
    auto p1 = makeParent(cfg, 0, 5, 6);
    auto p2 = makeParent(cfg, 1, 6, 6);
    EvePe pe(codec, quietPe(), 17);
    const auto res = pe.processChild(streamFor(p1, p2, cfg));
    EXPECT_EQ(res.childGenes.size(), p1.numGenes());
    EXPECT_GT(res.ops.cloneOps, 0);
    const auto child = codec.decodeGenome(res.childGenes, 3);
    for (const auto &[nk, ng] : child.nodes())
        EXPECT_TRUE(p1.nodes().count(nk));
    for (const auto &[ck, cg] : child.connections())
        EXPECT_TRUE(p1.connections().count(ck));
}

TEST(EvePe, PerturbationStaysWithinLimits)
{
    const auto cfg = hwConfig();
    const auto p1 = makeParent(cfg, 0, 7);
    PeConfig pcfg = quietPe();
    pcfg.perturbProb = 1.0;
    pcfg.perturbPower = 100.0;
    pcfg.attrMin = -5.0;
    pcfg.attrMax = 5.0;
    EvePe pe(codec, pcfg, 19);
    const auto res = pe.processChild(streamFor(p1, p1, cfg));
    for (const auto g : res.childGenes) {
        if (g.isConnection()) {
            const double w = codec.decodeConnection(g).weight;
            EXPECT_GE(w, -5.0);
            EXPECT_LE(w, 5.0);
        } else {
            EXPECT_GE(codec.decodeNode(g).bias, -5.0);
            EXPECT_LE(codec.decodeNode(g).bias, 5.0);
        }
    }
}

TEST(EvePe, PerturbationQuantizesToQ610)
{
    const auto cfg = hwConfig();
    const auto p1 = makeParent(cfg, 0, 8);
    PeConfig pcfg = quietPe();
    pcfg.perturbProb = 1.0;
    EvePe pe(codec, pcfg, 23);
    const auto res = pe.processChild(streamFor(p1, p1, cfg));
    const double resolution = codec.attrCodec().resolution();
    for (const auto g : res.childGenes) {
        if (g.isConnection()) {
            const double w = codec.decodeConnection(g).weight;
            const double steps = w / resolution;
            EXPECT_NEAR(steps, std::round(steps), 1e-9);
        }
    }
}

TEST(EvePe, DeleteEngineRespectsLivenessThreshold)
{
    const auto cfg = hwConfig();
    auto p1 = makeParent(cfg, 0, 9);
    // Give the parent several hidden nodes.
    neat::NodeIndexer idx(1000);
    XorWow mrng(10);
    for (int i = 0; i < 6; ++i)
        p1.mutateAddNode(cfg, idx, mrng);

    PeConfig pcfg = quietPe();
    pcfg.nodeDeleteProb = 1.0; // try to delete every node
    pcfg.maxNodeDeletions = 2;
    EvePe pe(codec, pcfg, 29);
    const auto res = pe.processChild(streamFor(p1, p1, cfg));
    EXPECT_EQ(res.deletedNodes.size(), 2u);
}

TEST(EvePe, DeleteEnginePrunesDanglingConnections)
{
    const auto cfg = hwConfig();
    auto p1 = makeParent(cfg, 0, 11);
    neat::NodeIndexer idx(1000);
    XorWow mrng(12);
    const int hidden = p1.mutateAddNode(cfg, idx, mrng);
    ASSERT_GE(hidden, 0);

    PeConfig pcfg = quietPe();
    pcfg.nodeDeleteProb = 1.0;
    pcfg.maxNodeDeletions = 8;
    EvePe pe(codec, pcfg, 31);
    const auto res = pe.processChild(streamFor(p1, p1, cfg));
    // No surviving connection may reference a deleted node.
    const std::set<int> deleted(res.deletedNodes.begin(),
                                res.deletedNodes.end());
    for (const auto g : res.childGenes) {
        if (g.isConnection()) {
            EXPECT_FALSE(deleted.count(codec.connectionSource(g)));
            EXPECT_FALSE(deleted.count(codec.connectionDest(g)));
        } else {
            EXPECT_FALSE(deleted.count(codec.nodeId(g)));
        }
    }
    const auto child = codec.decodeGenome(res.childGenes, 1);
    child.validate(cfg);
}

TEST(EvePe, DeleteEngineNeverDeletesOutputs)
{
    const auto cfg = hwConfig();
    const auto p1 = makeParent(cfg, 0, 13);
    PeConfig pcfg = quietPe();
    pcfg.nodeDeleteProb = 1.0;
    pcfg.maxNodeDeletions = 100;
    EvePe pe(codec, pcfg, 37);
    const auto res = pe.processChild(streamFor(p1, p1, cfg));
    const auto child = codec.decodeGenome(res.childGenes, 1);
    EXPECT_TRUE(child.nodes().count(0));
    EXPECT_TRUE(child.nodes().count(1));
}

TEST(EvePe, AddNodeEngineSplitsConnections)
{
    const auto cfg = hwConfig();
    const auto p1 = makeParent(cfg, 0, 14);
    PeConfig pcfg = quietPe();
    pcfg.nodeAddProb = 1.0; // split every connection
    EvePe pe(codec, pcfg, 41);
    const auto res = pe.processChild(streamFor(p1, p1, cfg));

    const auto merged = mergeChild(res.childGenes, codec);
    const auto child = codec.decodeGenome(merged.genome, 1);
    // Every original connection replaced by node + 2 connections.
    EXPECT_EQ(child.numNodeGenes(),
              p1.numNodeGenes() + p1.numConnectionGenes());
    EXPECT_EQ(child.numConnectionGenes(),
              2 * p1.numConnectionGenes());
    child.validate(cfg);
    EXPECT_GT(res.ops.addOps, 0);
}

TEST(EvePe, AddConnectionUsesValidEndpoints)
{
    const auto cfg = hwConfig();
    auto p1 = makeParent(cfg, 0, 15);
    neat::NodeIndexer idx(1000);
    XorWow mrng(16);
    for (int i = 0; i < 3; ++i)
        p1.mutateAddNode(cfg, idx, mrng);

    PeConfig pcfg = quietPe();
    pcfg.connAddProb = 0.5;
    EvePe pe(codec, pcfg, 43);
    const auto res = pe.processChild(streamFor(p1, p1, cfg));
    const auto merged = mergeChild(res.childGenes, codec);

    // Valid endpoints: inputs + surviving nodes.
    std::set<int> valid{-1, -2, -3};
    for (const auto g : merged.genome) {
        if (g.isNode())
            valid.insert(codec.nodeId(g));
    }
    for (const auto g : merged.genome) {
        if (g.isConnection()) {
            EXPECT_TRUE(valid.count(codec.connectionSource(g)));
            EXPECT_TRUE(valid.count(codec.connectionDest(g)));
        }
    }
}

TEST(EvePe, CycleAccountingMatchesModel)
{
    const auto cfg = hwConfig();
    const auto p1 = makeParent(cfg, 0, 17);
    EvePe pe(codec, quietPe(), 47);
    const auto stream = streamFor(p1, p1, cfg);
    const auto res = pe.processChild(stream);
    // 2 header + one per pair + 4 drain, no add stalls.
    EXPECT_EQ(res.cycles,
              2 + static_cast<long>(stream.size()) + 4);
}

TEST(EvePe, AddStallsExtendCycles)
{
    const auto cfg = hwConfig();
    const auto p1 = makeParent(cfg, 0, 18);
    PeConfig pcfg = quietPe();
    pcfg.nodeAddProb = 1.0;
    EvePe pe(codec, pcfg, 53);
    const auto stream = streamFor(p1, p1, cfg);
    const auto res = pe.processChild(stream);
    // Every connection splits: +2 stall cycles each.
    EXPECT_EQ(res.cycles,
              2 + static_cast<long>(stream.size()) +
                  2 * static_cast<long>(p1.numConnectionGenes()) + 4);
}

TEST(EvePe, DeterministicForSameSeed)
{
    const auto cfg = hwConfig();
    const auto p1 = makeParent(cfg, 0, 19, 4);
    const auto p2 = makeParent(cfg, 1, 20, 4);
    PeConfig pcfg = peConfigFrom(cfg, p1.numGenes());
    EvePe a(codec, pcfg, 61), b(codec, pcfg, 61);
    const auto ra = a.processChild(streamFor(p1, p2, cfg));
    const auto rb = b.processChild(streamFor(p1, p2, cfg));
    ASSERT_EQ(ra.childGenes.size(), rb.childGenes.size());
    for (size_t i = 0; i < ra.childGenes.size(); ++i)
        EXPECT_EQ(ra.childGenes[i].raw, rb.childGenes[i].raw);
}

TEST(PeConfigFrom, ScalesPerChildProbabilities)
{
    auto cfg = hwConfig();
    cfg.nodeAddProb = 0.5;
    cfg.connDeleteProb = 0.8;
    const auto pe = peConfigFrom(cfg, 100);
    EXPECT_DOUBLE_EQ(pe.nodeAddProb, 0.005);
    EXPECT_DOUBLE_EQ(pe.connDeleteProb, 0.008);
    EXPECT_DOUBLE_EQ(pe.perturbProb, cfg.weight.mutateRate);
}
