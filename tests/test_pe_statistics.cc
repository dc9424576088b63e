/**
 * @file
 * Statistical tests of the EvE PE's stochastic engines: across many
 * children, the hardware's per-gene probability mechanisms must
 * reproduce the configured rates — the property that makes the
 * trace-driven performance model representative of the functional
 * pipeline.
 */

#include <gtest/gtest.h>

#include "hw/eve_pe.hh"
#include "hw/gene_merge.hh"

using namespace genesys;
using namespace genesys::hw;

namespace
{

GeneCodec codec;

struct PeStatsFixture : ::testing::Test
{
    PeStatsFixture()
    {
        cfg.numInputs = 8;
        cfg.numOutputs = 4;
        neat::NodeIndexer idx(cfg.numOutputs);
        XorWow rng(1);
        parent = neat::Genome::createNew(0, cfg, idx, rng);
        for (int i = 0; i < 10; ++i)
            parent.mutateAddNode(cfg, idx, rng);
        stream = alignStreams(codec.encodeGenome(parent, cfg),
                              codec.encodeGenome(parent, cfg), codec);
    }

    neat::NeatConfig cfg;
    neat::Genome parent;
    std::vector<GenePair> stream;
};

} // namespace

TEST_F(PeStatsFixture, ConnDeleteRateHonored)
{
    PeConfig pcfg;
    pcfg.perturbProb = 0.0;
    pcfg.nodeDeleteProb = 0.0;
    pcfg.nodeAddProb = 0.0;
    pcfg.connAddProb = 0.0;
    pcfg.connDeleteProb = 0.10;
    EvePe pe(codec, pcfg, 42);

    long deleted = 0, total = 0;
    const long conns = static_cast<long>(parent.numConnectionGenes());
    for (int child = 0; child < 400; ++child) {
        const auto res = pe.processChild(stream);
        deleted += res.ops.deleteOps;
        total += conns;
    }
    EXPECT_NEAR(static_cast<double>(deleted) / total, 0.10, 0.015);
}

TEST_F(PeStatsFixture, NodeAddRateHonored)
{
    PeConfig pcfg;
    pcfg.perturbProb = 0.0;
    pcfg.nodeDeleteProb = 0.0;
    pcfg.connDeleteProb = 0.0;
    pcfg.connAddProb = 0.0;
    pcfg.nodeAddProb = 0.05;
    EvePe pe(codec, pcfg, 43);

    long splits = 0, opportunities = 0;
    const long conns = static_cast<long>(parent.numConnectionGenes());
    for (int child = 0; child < 400; ++child) {
        const auto res = pe.processChild(stream);
        splits += res.ops.addOps / 3; // node add = 3 gene-ops
        opportunities += conns;
    }
    EXPECT_NEAR(static_cast<double>(splits) / opportunities, 0.05,
                0.01);
}

TEST_F(PeStatsFixture, CrossoverSelectionIsUnbiasedAtHalf)
{
    // Parents with distinguishable weights.
    auto p1 = parent;
    auto p2 = parent;
    for (auto &&[k, c] : p1.mutableConnections())
        c.weight = 2.0;
    for (auto &&[k, c] : p2.mutableConnections())
        c.weight = -2.0;
    const auto s = alignStreams(codec.encodeGenome(p1, cfg),
                                codec.encodeGenome(p2, cfg), codec);

    PeConfig pcfg;
    pcfg.perturbProb = 0.0;
    EvePe pe(codec, pcfg, 44);
    long from_p1 = 0, total = 0;
    for (int child = 0; child < 200; ++child) {
        const auto res = pe.processChild(s);
        for (const auto g : res.childGenes) {
            if (g.isConnection()) {
                ++total;
                if (codec.decodeConnection(g).weight > 0)
                    ++from_p1;
            }
        }
    }
    EXPECT_NEAR(static_cast<double>(from_p1) / total, 0.5, 0.02);
}

TEST_F(PeStatsFixture, PerturbationIsZeroMean)
{
    PeConfig pcfg;
    pcfg.perturbProb = 1.0;
    pcfg.perturbPower = 0.5;
    pcfg.nodeDeleteProb = pcfg.connDeleteProb = 0.0;
    pcfg.nodeAddProb = pcfg.connAddProb = 0.0;
    EvePe pe(codec, pcfg, 45);

    double drift = 0.0;
    long n = 0;
    for (int child = 0; child < 200; ++child) {
        const auto res = pe.processChild(stream);
        for (const auto g : res.childGenes) {
            if (g.isConnection()) {
                drift += codec.decodeConnection(g).weight -
                         parent.connections()
                             .at({codec.connectionSource(g),
                                  codec.connectionDest(g)})
                             .weight;
                ++n;
            }
        }
    }
    EXPECT_NEAR(drift / static_cast<double>(n), 0.0, 0.02);
}

TEST_F(PeStatsFixture, ChildSizeStableUnderBalancedRates)
{
    // With matched add/delete pressure the expected genome size is
    // roughly conserved over a single pipeline pass.
    PeConfig pcfg;
    pcfg.perturbProb = 0.5;
    pcfg.connDeleteProb = 0.02;
    pcfg.connAddProb = 0.02;
    pcfg.nodeAddProb = 0.0;
    pcfg.nodeDeleteProb = 0.0;
    EvePe pe(codec, pcfg, 46);

    double mean_size = 0.0;
    const int children = 300;
    for (int child = 0; child < children; ++child) {
        const auto res = pe.processChild(stream);
        const auto merged = mergeChild(res.childGenes, codec);
        mean_size += static_cast<double>(merged.genome.size());
    }
    mean_size /= children;
    EXPECT_NEAR(mean_size, static_cast<double>(parent.numGenes()),
                parent.numGenes() * 0.05);
}

TEST_F(PeStatsFixture, EveryChildDecodesToValidGenome)
{
    PeConfig pcfg = peConfigFrom(cfg, stream.size());
    EvePe pe(codec, pcfg, 47);
    auto relaxed = cfg;
    relaxed.feedForward = false;
    for (int child = 0; child < 100; ++child) {
        const auto res = pe.processChild(stream);
        const auto merged = mergeChild(res.childGenes, codec);
        const auto g = codec.decodeGenome(merged.genome, child);
        g.validate(relaxed);
    }
}
