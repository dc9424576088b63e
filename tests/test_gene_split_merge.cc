/**
 * @file
 * Tests for the Gene Split (stream alignment, PE wave allocation) and
 * Gene Merge (ordering, dedup, writeback) units.
 */

#include <gtest/gtest.h>

#include "hw/eve.hh"
#include "hw/eve_pe.hh"
#include "hw/gene_merge.hh"

using namespace genesys;
using namespace genesys::hw;

namespace
{

GeneCodec codec;

neat::NeatConfig
cfg3x2()
{
    neat::NeatConfig cfg;
    cfg.numInputs = 3;
    cfg.numOutputs = 2;
    return cfg;
}

} // namespace

TEST(AlignStreams, IdenticalParentsFullyPaired)
{
    const auto cfg = cfg3x2();
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(1);
    const auto g = neat::Genome::createNew(0, cfg, idx, rng);
    const auto s = codec.encodeGenome(g, cfg);
    long cycles = 0;
    const auto pairs = alignStreams(s, s, codec, &cycles);
    EXPECT_EQ(pairs.size(), g.numGenes());
    EXPECT_EQ(cycles, static_cast<long>(g.numGenes()));
    for (const auto &p : pairs) {
        EXPECT_TRUE(p.hasParent2);
        EXPECT_EQ(p.parent1.raw, p.parent2.raw);
    }
}

TEST(AlignStreams, DisjointGenesHandled)
{
    const auto cfg = cfg3x2();
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(2);
    auto p1 = neat::Genome::createNew(0, cfg, idx, rng);
    auto p2 = p1;
    // p1 extra hidden node (disjoint in p1).
    const int h1 = p1.mutateAddNode(cfg, idx, rng);
    // p2 extra different hidden node (disjoint in p2, must be skipped).
    const int h2 = p2.mutateAddNode(cfg, idx, rng);
    ASSERT_NE(h1, h2);

    long cycles = 0;
    const auto pairs = alignStreams(codec.encodeGenome(p1, cfg),
                                    codec.encodeGenome(p2, cfg), codec,
                                    &cycles);
    // One pair per p1 gene.
    EXPECT_EQ(pairs.size(), p1.numGenes());
    // Union cycle count: p1 genes + p2-only genes.
    EXPECT_GT(cycles, static_cast<long>(p1.numGenes()));

    size_t singles = 0;
    for (const auto &p : pairs) {
        if (!p.hasParent2)
            ++singles;
    }
    // p1's disjoint genes: node h1 + its 2 new conns; also the conn it
    // disabled exists in p2 too so it pairs. p2 split a (possibly
    // different) connection, changing its enable bit only - the key
    // still matches. So exactly 3 singleton pairs.
    EXPECT_EQ(singles, 3u);
}

TEST(AlignStreams, PairedKeysActuallyMatch)
{
    const auto cfg = cfg3x2();
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(3);
    auto p1 = neat::Genome::createNew(0, cfg, idx, rng);
    auto p2 = neat::Genome::createNew(1, cfg, idx, rng);
    for (int i = 0; i < 8; ++i) {
        p1.mutate(cfg, idx, rng);
        p2.mutate(cfg, idx, rng);
    }
    const auto pairs = alignStreams(codec.encodeGenome(p1, cfg),
                                    codec.encodeGenome(p2, cfg), codec);
    for (const auto &p : pairs) {
        if (!p.hasParent2)
            continue;
        ASSERT_EQ(p.parent1.isNode(), p.parent2.isNode());
        if (p.parent1.isNode()) {
            EXPECT_EQ(codec.nodeId(p.parent1), codec.nodeId(p.parent2));
        } else {
            EXPECT_EQ(codec.connectionSource(p.parent1),
                      codec.connectionSource(p.parent2));
            EXPECT_EQ(codec.connectionDest(p.parent1),
                      codec.connectionDest(p.parent2));
        }
    }
}

TEST(AlignStreams, NodesPrecedeConnections)
{
    const auto cfg = cfg3x2();
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(4);
    auto p1 = neat::Genome::createNew(0, cfg, idx, rng);
    p1.mutateAddNode(cfg, idx, rng);
    const auto pairs = alignStreams(codec.encodeGenome(p1, cfg),
                                    codec.encodeGenome(p1, cfg), codec);
    bool seen_conn = false;
    for (const auto &p : pairs) {
        if (p.parent1.isConnection())
            seen_conn = true;
        else
            EXPECT_FALSE(seen_conn);
    }
}

namespace
{

neat::EvolutionTrace
traceWithParents(const std::vector<std::pair<int, int>> &parent_pairs)
{
    neat::EvolutionTrace t;
    int key = 1000;
    for (const auto &[p1, p2] : parent_pairs) {
        neat::ChildRecord c;
        c.childKey = key++;
        c.parent1Key = p1;
        c.parent2Key = p2;
        c.parent1Genes = 10;
        c.parent2Genes = 10;
        c.alignedStreamLen = 12;
        c.childNodeGenes = 2;
        c.childConnGenes = 8;
        t.children.push_back(c);
    }
    return t;
}

} // namespace

TEST(AllocateWaves, RespectsPeCount)
{
    const auto trace =
        traceWithParents({{1, 2}, {1, 2}, {3, 4}, {3, 4}, {5, 6}});
    const auto waves = allocateWaves(trace, 2);
    ASSERT_EQ(waves.size(), 3u);
    EXPECT_EQ(waves[0].size(), 2u);
    EXPECT_EQ(waves[1].size(), 2u);
    EXPECT_EQ(waves[2].size(), 1u);
}

TEST(AllocateWaves, GroupsSharedParentsTogether)
{
    // Interleaved parent pairs; greedy allocation should cluster.
    const auto trace = traceWithParents(
        {{1, 2}, {3, 4}, {1, 2}, {3, 4}, {1, 2}, {3, 4}});
    const auto waves = allocateWaves(trace, 3);
    ASSERT_EQ(waves.size(), 2u);
    for (const auto &wave : waves) {
        std::set<std::pair<int, int>> pairs;
        for (size_t idx : wave) {
            pairs.insert({trace.children[idx].parent1Key,
                          trace.children[idx].parent2Key});
        }
        EXPECT_EQ(pairs.size(), 1u) << "wave mixes parent pairs";
    }
}

TEST(AllocateWaves, ElitesExcluded)
{
    auto trace = traceWithParents({{1, 2}, {3, 4}});
    neat::ChildRecord elite;
    elite.childKey = 7;
    elite.parent1Key = elite.parent2Key = 7;
    elite.isElite = true;
    trace.children.push_back(elite);
    const auto waves = allocateWaves(trace, 8);
    size_t total = 0;
    for (const auto &w : waves)
        total += w.size();
    EXPECT_EQ(total, 2u);
}

TEST(AllocateWaves, SinglePeSerializesEverything)
{
    const auto trace = traceWithParents({{1, 2}, {1, 2}, {1, 2}});
    const auto waves = allocateWaves(trace, 1);
    EXPECT_EQ(waves.size(), 3u);
}

TEST(GeneMerge, RestoresGenomeOrder)
{
    const auto cfg = cfg3x2();
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(5);
    const auto g = neat::Genome::createNew(0, cfg, idx, rng);
    auto stream = codec.encodeGenome(g, cfg);
    // Shuffle to simulate add-engine emissions out of order.
    XorWow shuffle_rng(6);
    shuffle_rng.shuffle(stream);

    const auto merged = mergeChild(stream, codec);
    EXPECT_EQ(merged.genome.size(), g.numGenes());
    EXPECT_EQ(merged.duplicatesDropped, 0);
    EXPECT_EQ(merged.sramWrites,
              static_cast<long>(g.numGenes()));
    // Verify the organization invariant.
    bool in_conns = false;
    int last_node = -1000000;
    for (const auto p : merged.genome) {
        if (p.isConnection()) {
            in_conns = true;
        } else {
            EXPECT_FALSE(in_conns);
            EXPECT_GT(codec.nodeId(p), last_node);
            last_node = codec.nodeId(p);
        }
    }
}

TEST(GeneMerge, DropsDuplicates)
{
    const auto cfg = cfg3x2();
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(7);
    const auto g = neat::Genome::createNew(0, cfg, idx, rng);
    auto stream = codec.encodeGenome(g, cfg);
    stream.push_back(stream.front()); // duplicate node gene
    stream.push_back(stream.back());  // and once more

    const auto merged = mergeChild(stream, codec);
    EXPECT_EQ(merged.genome.size(), g.numGenes());
    EXPECT_EQ(merged.duplicatesDropped, 2);
}

TEST(GeneMerge, KeepsFirstOccurrence)
{
    neat::ConnectionGene a;
    a.key = {1, 2};
    a.weight = 5.0;
    neat::ConnectionGene b = a;
    b.weight = -5.0;
    const auto merged = mergeChild(
        {codec.encodeConnection(a), codec.encodeConnection(b)}, codec);
    ASSERT_EQ(merged.genome.size(), 1u);
    EXPECT_DOUBLE_EQ(codec.decodeConnection(merged.genome[0]).weight,
                     5.0);
}
