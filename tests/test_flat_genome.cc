/**
 * @file
 * Tests for the flat SoA genome storage (FlatGeneMap): container
 * semantics, sorted-iteration invariants under mutation, the
 * single-pass validate() cycle check and the elitism/spawn clamp.
 * Whole-run bit-identity across thread counts, the per-generation
 * history included, is test_episode_batch's System sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "core/genesys.hh"
#include "neat/flat_gene_map.hh"
#include "neat/reproduction.hh"
#include "nn/compiled_plan.hh"
#include "nn/feedforward.hh"

using namespace genesys;
using namespace genesys::neat;

// --- FlatGeneMap container semantics -----------------------------------------

TEST(FlatGeneMap, KeepsKeysSortedRegardlessOfInsertionOrder)
{
    FlatGeneMap<int, NodeGene> m;
    for (int k : {7, 2, 9, 0, 5}) {
        NodeGene ng;
        ng.key = k;
        EXPECT_TRUE(m.emplace(k, ng).second);
    }
    EXPECT_EQ(m.size(), 5u);
    EXPECT_EQ(m.keys(), (std::vector<int>{0, 2, 5, 7, 9}));
    // values() is parallel to keys().
    for (size_t i = 0; i < m.size(); ++i)
        EXPECT_EQ(m.valueAt(i).key, m.keyAt(i));
    // Iteration yields ascending (key, gene) pairs.
    int prev = -1;
    for (const auto &[k, g] : m) {
        EXPECT_GT(k, prev);
        EXPECT_EQ(g.key, k);
        prev = k;
    }
}

TEST(FlatGeneMap, EmplaceDoesNotOverwriteInsertOrAssignDoes)
{
    FlatGeneMap<int, NodeGene> m;
    NodeGene a;
    a.key = 3;
    a.bias = 1.0;
    ASSERT_TRUE(m.emplace(3, a).second);

    NodeGene b = a;
    b.bias = 2.0;
    EXPECT_FALSE(m.emplace(3, b).second); // map semantics: keep first
    EXPECT_DOUBLE_EQ(m.at(3).bias, 1.0);

    EXPECT_FALSE(m.insert_or_assign(3, b).second);
    EXPECT_DOUBLE_EQ(m.at(3).bias, 2.0);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatGeneMap, FindCountEraseAndIteratorProxies)
{
    FlatGeneMap<ConnKey, ConnectionGene> m;
    auto add = [&m](int a, int b, double w) {
        ConnectionGene c;
        c.key = {a, b};
        c.weight = w;
        m.emplace(c.key, c);
    };
    add(-1, 0, 1.0);
    add(-2, 0, 2.0);
    add(1, 0, 3.0);

    EXPECT_EQ(m.count(ConnKey{-2, 0}), 1u);
    EXPECT_EQ(m.count(ConnKey{-3, 0}), 0u);
    EXPECT_TRUE(m.contains(ConnKey{1, 0}));

    auto it = m.find(ConnKey{-1, 0});
    ASSERT_NE(it, m.end());
    EXPECT_DOUBLE_EQ(it->second.weight, 1.0); // arrow proxy
    EXPECT_EQ(m.begin()->first, (ConnKey{-2, 0}));

    // Algorithms over proxy pairs.
    const auto heavy = std::count_if(
        m.begin(), m.end(),
        [](const auto &kv) { return kv.second.weight > 1.5; });
    EXPECT_EQ(heavy, 2);

    // Mutable iteration through the proxy writes the stored gene.
    for (auto &&[ck, cg] : m)
        cg.weight += 10.0;
    EXPECT_DOUBLE_EQ(m.at(ConnKey{1, 0}).weight, 13.0);

    // erase(key) and iterator-erase loop.
    EXPECT_EQ(m.erase(ConnKey{-2, 0}), 1u);
    EXPECT_EQ(m.erase(ConnKey{-2, 0}), 0u);
    for (auto i = m.begin(); i != m.end();)
        i = i->first.first == 1 ? m.erase(i) : ++i;
    EXPECT_EQ(m.size(), 1u);
    EXPECT_TRUE(m.contains(ConnKey{-1, 0}));
}

TEST(FlatGeneMap, EraseIfRemovesInOneStablePass)
{
    FlatGeneMap<int, NodeGene> m;
    for (int k = 0; k < 10; ++k) {
        NodeGene ng;
        ng.key = k;
        m.emplace(k, ng);
    }
    const size_t removed =
        m.eraseIf([](int k, const NodeGene &) { return k % 3 == 0; });
    EXPECT_EQ(removed, 4u); // 0, 3, 6, 9
    EXPECT_EQ(m.keys(), (std::vector<int>{1, 2, 4, 5, 7, 8}));
    for (size_t i = 0; i < m.size(); ++i)
        EXPECT_EQ(m.valueAt(i).key, m.keyAt(i));
}

// --- genome invariants under heavy mutation ----------------------------------

TEST(FlatGenome, MutationsPreserveSortedStorageAndValidity)
{
    NeatConfig cfg;
    cfg.numInputs = 4;
    cfg.numOutputs = 2;
    cfg.nodeAddProb = 0.4;
    cfg.nodeDeleteProb = 0.3;
    cfg.connAddProb = 0.5;
    cfg.connDeleteProb = 0.3;
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(2024);
    auto g = Genome::createNew(0, cfg, idx, rng);
    for (int step = 0; step < 200; ++step) {
        g.mutate(cfg, idx, rng);
        // validate() checks endpoints, strict key ordering of both
        // SoA arrays, and acyclicity in one topological pass.
        g.validate(cfg);
        EXPECT_TRUE(std::is_sorted(g.nodes().keys().begin(),
                                   g.nodes().keys().end()));
        EXPECT_TRUE(std::is_sorted(g.connections().keys().begin(),
                                   g.connections().keys().end()));
    }
}

TEST(FlatGenome, CrossoverMergeJoinMatchesLookupSemantics)
{
    NeatConfig cfg;
    cfg.numInputs = 3;
    cfg.numOutputs = 2;
    cfg.nodeAddProb = 0.5;
    cfg.connAddProb = 0.5;
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(99);
    auto p1 = Genome::createNew(1, cfg, idx, rng);
    auto p2 = Genome::createNew(2, cfg, idx, rng);
    for (int i = 0; i < 10; ++i) {
        p1.mutate(cfg, idx, rng);
        p2.mutate(cfg, idx, rng);
    }

    MutationCounts counts;
    const auto child = Genome::crossover(3, p1, p2, rng, &counts);
    // Every child key comes from parent1; homologous vs clone counts
    // partition parent1's genes.
    EXPECT_EQ(child.numGenes(), p1.numGenes());
    for (int nk : child.nodes().keys())
        EXPECT_TRUE(p1.nodes().contains(nk));
    for (const ConnKey &ck : child.connections().keys())
        EXPECT_TRUE(p1.connections().contains(ck));
    long homologous = 0;
    for (int nk : p1.nodes().keys())
        homologous += p2.nodes().contains(nk) ? 1 : 0;
    for (const ConnKey &ck : p1.connections().keys())
        homologous += p2.connections().contains(ck) ? 1 : 0;
    EXPECT_EQ(counts.crossoverOps, homologous);
    EXPECT_EQ(counts.cloneOps,
              static_cast<long>(p1.numGenes()) - homologous);
}

// --- single-pass validate ----------------------------------------------------

TEST(FlatGenome, ValidateReportsTheOffendingCycleEdge)
{
    NeatConfig cfg;
    cfg.numInputs = 1;
    cfg.numOutputs = 1;
    cfg.feedForward = true;
    Genome g(0);
    NodeGene out;
    out.key = 0;
    g.mutableNodes().emplace(0, out);
    NodeGene h1;
    h1.key = 1;
    g.mutableNodes().emplace(1, h1);
    NodeGene h2;
    h2.key = 2;
    g.mutableNodes().emplace(2, h2);
    auto add = [&g](int a, int b) {
        ConnectionGene c;
        c.key = {a, b};
        g.mutableConnections().emplace(c.key, c);
    };
    add(-1, 1);
    add(1, 2);
    add(2, 1); // closes the 1 -> 2 -> 1 cycle
    add(2, 0);

    try {
        g.validate(cfg);
        FAIL() << "validate accepted a cyclic feed-forward genome";
    } catch (const std::logic_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("cycle through connection"), std::string::npos)
            << msg;
        // The reported edge sits inside the unresolved subgraph
        // {1, 2} — one of (1,2) / (2,1), not the acyclic tail edges.
        const bool names_cycle_edge =
            msg.find("(1,2)") != std::string::npos ||
            msg.find("(2,1)") != std::string::npos;
        EXPECT_TRUE(names_cycle_edge) << msg;
    }
}

TEST(FlatGenome, ValidateNamesACycleEdgeNotADownstreamEdge)
{
    // Cycle on high keys (8, 9) with a tail 9 -> 3 -> 0 hanging off
    // it: the tail edges sort before the cycle edges and are also
    // unresolved after the forward pass, but the report must name an
    // edge on the cycle itself.
    NeatConfig cfg;
    cfg.numInputs = 1;
    cfg.numOutputs = 1;
    cfg.feedForward = true;
    Genome g(0);
    for (int k : {0, 3, 8, 9}) {
        NodeGene n;
        n.key = k;
        g.mutableNodes().emplace(k, n);
    }
    auto add = [&g](int a, int b) {
        ConnectionGene c;
        c.key = {a, b};
        g.mutableConnections().emplace(c.key, c);
    };
    add(-1, 8);
    add(8, 9);
    add(9, 8); // the cycle
    add(9, 3);
    add(3, 0); // downstream tail, sorts first

    try {
        g.validate(cfg);
        FAIL() << "validate accepted a cyclic feed-forward genome";
    } catch (const std::logic_error &e) {
        const std::string msg = e.what();
        const bool names_cycle_edge =
            msg.find("(8,9)") != std::string::npos ||
            msg.find("(9,8)") != std::string::npos;
        EXPECT_TRUE(names_cycle_edge) << msg;
        EXPECT_EQ(msg.find("(3,0)"), std::string::npos) << msg;
        EXPECT_EQ(msg.find("(9,3)"), std::string::npos) << msg;
    }
}

TEST(FlatGenome, SparseNodeKeysCompileThroughTheBinarySearchPath)
{
    // Late-run genomes carry few genes with huge ids (the node
    // indexer never reuses keys). Compile must not direct-address
    // such a key space; the fallback must produce the same network.
    NeatConfig cfg;
    cfg.numInputs = 2;
    cfg.numOutputs = 1;
    XorWow rng(31);
    Genome g(0);
    NodeGene out;
    out.key = 0;
    out.bias = 0.3;
    g.mutableNodes().emplace(0, out);
    NodeGene far;
    far.key = 1'000'000; // forces the sparse (binary search) path
    far.bias = -0.2;
    g.mutableNodes().emplace(far.key, far);
    auto add = [&g, &rng](int a, int b) {
        ConnectionGene c;
        c.key = {a, b};
        c.weight = rng.gaussian();
        g.mutableConnections().emplace(c.key, c);
    };
    add(-1, far.key);
    add(-2, far.key);
    add(far.key, 0);
    add(-1, 0);

    const auto net = nn::FeedForwardNetwork::create(g, cfg);
    const auto plan = nn::CompiledPlan::compileFor(g, cfg);
    nn::PlanScratch s;
    for (int t = 0; t < 8; ++t) {
        const std::vector<double> in{rng.uniform(-2.0, 2.0),
                                     rng.uniform(-2.0, 2.0)};
        plan.activate(in, s);
        EXPECT_EQ(s.outputs, net.activate(in));
    }
}

TEST(FlatGenome, ValidateAcceptsSelfLoopOnlyWhenRecurrent)
{
    NeatConfig cfg;
    cfg.numInputs = 1;
    cfg.numOutputs = 1;
    Genome g(0);
    NodeGene out;
    out.key = 0;
    g.mutableNodes().emplace(0, out);
    ConnectionGene self;
    self.key = {0, 0};
    g.mutableConnections().emplace(self.key, self);
    ConnectionGene in;
    in.key = {-1, 0};
    g.mutableConnections().emplace(in.key, in);

    cfg.feedForward = true;
    EXPECT_ANY_THROW(g.validate(cfg));
    cfg.feedForward = false;
    EXPECT_NO_THROW(g.validate(cfg));
}

// --- elitism vs spawn_amounts clamp ------------------------------------------

TEST(ReproductionClamp, ElitismNeverPushesPopulationPastSize)
{
    // 3 species x elitism 4 forces sum(max(spawn, elitism)) = 12 > 10:
    // the pre-clamp code produced 12 genomes for populationSize 10.
    NeatConfig cfg;
    cfg.numInputs = 2;
    cfg.numOutputs = 1;
    cfg.populationSize = 10;
    cfg.elitism = 4;
    cfg.minSpeciesSize = 1;
    cfg.maxStagnation = 50;

    Reproduction repro(cfg);
    XorWow rng(5);
    auto pop = repro.createNewPopulation(rng);
    ASSERT_EQ(pop.size(), 10u);
    int i = 0;
    for (auto &[gk, g] : pop)
        g.setFitness(i++);

    // Partition into 3 species by hand (speciation would merge them).
    SpeciesSet set(cfg);
    int sk = 1;
    auto it = pop.begin();
    for (int s = 0; s < 3; ++s) {
        Species sp;
        sp.key = sk;
        sp.representative = it->second;
        for (int m = 0; m < (s == 0 ? 4 : 3); ++m, ++it)
            sp.memberKeys.push_back(it->first);
        set.mutableSpecies().emplace(sk++, sp);
    }
    ASSERT_EQ(it, pop.end());

    EvolutionTrace trace;
    const auto next = repro.reproduce(set, pop, 0, rng, trace);
    EXPECT_LE(next.size(), 10u);
    EXPECT_EQ(trace.children.size(), next.size());
}
