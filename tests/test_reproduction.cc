/**
 * @file
 * Tests for reproduction: spawn apportioning, elitism, survival
 * threshold, trace recording, extinction handling, and breeding that
 * is bit-identical on every executor.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>

#include "exec/thread_pool.hh"
#include "neat/population.hh"
#include "neat/reproduction.hh"

using namespace genesys;
using namespace genesys::neat;

namespace
{

NeatConfig
reproConfig()
{
    NeatConfig cfg;
    cfg.numInputs = 2;
    cfg.numOutputs = 1;
    cfg.populationSize = 30;
    cfg.elitism = 2;
    cfg.survivalThreshold = 0.2;
    cfg.maxStagnation = 50;
    return cfg;
}

/**
 * |node-key union| + |connection-key union| of two genomes: the
 * aligned gene stream EvE feeds the PE for a child of `a` and `b`.
 */
size_t
keyUnionSize(const Genome &a, const Genome &b)
{
    std::vector<int> nodes;
    std::set_union(a.nodes().keys().begin(), a.nodes().keys().end(),
                   b.nodes().keys().begin(), b.nodes().keys().end(),
                   std::back_inserter(nodes));
    std::vector<ConnKey> conns;
    std::set_union(a.connections().keys().begin(),
                   a.connections().keys().end(),
                   b.connections().keys().begin(),
                   b.connections().keys().end(),
                   std::back_inserter(conns));
    return nodes.size() + conns.size();
}

} // namespace

TEST(ComputeSpawn, ProportionalToAdjustedFitness)
{
    const auto spawn =
        Reproduction::computeSpawn({0.75, 0.25}, {10, 10}, 100, 2);
    ASSERT_EQ(spawn.size(), 2u);
    EXPECT_GT(spawn[0], spawn[1]);
    // Totals stay near the population size.
    EXPECT_NEAR(spawn[0] + spawn[1], 100, 25);
}

TEST(ComputeSpawn, MinimumSizeEnforced)
{
    const auto spawn =
        Reproduction::computeSpawn({1.0, 0.0}, {20, 20}, 40, 5);
    for (int s : spawn)
        EXPECT_GE(s, 5);
}

TEST(ComputeSpawn, ZeroFitnessFallsBackToMinimum)
{
    const auto spawn =
        Reproduction::computeSpawn({0.0, 0.0}, {10, 10}, 20, 3);
    for (int s : spawn)
        EXPECT_GE(s, 3);
}

TEST(ComputeSpawn, SmoothsTowardTarget)
{
    // A species at size 2 entitled to ~50 should not jump there in
    // one generation (the 0.5 damping).
    const auto spawn =
        Reproduction::computeSpawn({0.5, 0.5}, {2, 98}, 100, 2);
    EXPECT_LT(spawn[0], 50);
    EXPECT_GT(spawn[0], 2);
}

TEST(Reproduction, NewPopulationHasConfiguredSize)
{
    const auto cfg = reproConfig();
    Reproduction repro(cfg);
    XorWow rng(1);
    const auto pop = repro.createNewPopulation(rng);
    EXPECT_EQ(pop.size(), 30u);
    for (const auto &[gk, g] : pop) {
        EXPECT_EQ(gk, g.key());
        g.validate(cfg);
    }
}

namespace
{

/** Run one reproduce() round with uniform fitness ranking. */
struct ReproFixture : ::testing::Test
{
    ReproFixture() : cfg(reproConfig()), repro(cfg), set(cfg), rng(7)
    {
        pop = repro.createNewPopulation(rng);
        int i = 0;
        for (auto &[gk, g] : pop)
            g.setFitness(i++); // strictly increasing by key
        set.speciate(pop, 0);
    }

    NeatConfig cfg;
    Reproduction repro;
    SpeciesSet set;
    XorWow rng;
    std::map<int, Genome> pop;
    EvolutionTrace trace;
};

} // namespace

TEST_F(ReproFixture, NextGenerationHasPopulationSize)
{
    const auto next = repro.reproduce(set, pop, 0, rng, trace);
    EXPECT_NEAR(static_cast<double>(next.size()), 30.0, 6.0);
    EXPECT_EQ(trace.children.size(), next.size());
}

TEST_F(ReproFixture, ElitesSurviveUnchanged)
{
    const auto next = repro.reproduce(set, pop, 0, rng, trace);
    // The two fittest genomes (keys 28, 29) are elites of their
    // species (single species expected with default init).
    int elites = 0;
    for (const auto &c : trace.children) {
        if (c.isElite) {
            ++elites;
            EXPECT_TRUE(next.count(c.childKey));
            // Same genes as the parent generation's genome.
            EXPECT_EQ(next.at(c.childKey).numGenes(),
                      pop.at(c.childKey).numGenes());
        }
    }
    EXPECT_GE(elites, cfg.elitism);
}

TEST_F(ReproFixture, ChildrenHaveFreshKeys)
{
    const auto next = repro.reproduce(set, pop, 0, rng, trace);
    for (const auto &c : trace.children) {
        if (!c.isElite) {
            EXPECT_GE(c.childKey, 30); // new keys continue after 0..29
        }
    }
}

TEST_F(ReproFixture, ParentsComeFromSurvivalCutoff)
{
    // survivalThreshold 0.2 of 30 genomes = top 6 (keys 24..29).
    const auto next = repro.reproduce(set, pop, 0, rng, trace);
    for (const auto &c : trace.children) {
        if (c.isElite)
            continue;
        EXPECT_GE(c.parent1Key, 24);
        EXPECT_GE(c.parent2Key, 24);
    }
}

TEST_F(ReproFixture, Parent1IsFitter)
{
    repro.reproduce(set, pop, 0, rng, trace);
    for (const auto &c : trace.children) {
        if (c.isElite)
            continue;
        EXPECT_GE(pop.at(c.parent1Key).fitness(),
                  pop.at(c.parent2Key).fitness());
    }
}

TEST_F(ReproFixture, TraceRecordsStreamLengths)
{
    repro.reproduce(set, pop, 0, rng, trace);
    for (const auto &c : trace.children) {
        if (c.isElite)
            continue;
        EXPECT_EQ(c.parent1Genes, pop.at(c.parent1Key).numGenes());
        EXPECT_EQ(c.parent2Genes, pop.at(c.parent2Key).numGenes());
        EXPECT_EQ(c.alignedStreamLen,
                  keyUnionSize(pop.at(c.parent1Key), pop.at(c.parent2Key)));
        EXPECT_GT(c.childGenes(), 0u);
        EXPECT_GT(c.ops.total(), 0);
    }
}

TEST_F(ReproFixture, ChildrenAreValidGenomes)
{
    const auto next = repro.reproduce(set, pop, 0, rng, trace);
    for (const auto &[gk, g] : next)
        g.validate(cfg);
}

TEST_F(ReproFixture, TraceParentReuseConsistent)
{
    repro.reproduce(set, pop, 0, rng, trace);
    const auto counts = trace.parentUseCounts();
    long total_uses = 0;
    for (const auto &[pk, n] : counts)
        total_uses += n;
    long non_elite = 0;
    for (const auto &c : trace.children) {
        if (!c.isElite)
            ++non_elite;
    }
    // Each non-elite child counts 1 or 2 parent uses.
    EXPECT_GE(total_uses, non_elite);
    EXPECT_LE(total_uses, 2 * non_elite);
    EXPECT_GE(trace.maxParentReuse(), 1);
}

TEST(Reproduction, ExtinctionReturnsEmpty)
{
    auto cfg = reproConfig();
    cfg.maxStagnation = 1;
    cfg.speciesElitism = 0;
    Reproduction repro(cfg);
    SpeciesSet set(cfg);
    XorWow rng(3);
    auto pop = repro.createNewPopulation(rng);
    for (auto &[gk, g] : pop)
        g.setFitness(1.0); // flat fitness forever
    set.speciate(pop, 0);

    EvolutionTrace trace;
    std::map<int, Genome> next;
    bool extinct = false;
    for (int gen = 0; gen < 6; ++gen) {
        next = repro.reproduce(set, pop, gen, rng, trace);
        if (next.empty()) {
            extinct = true;
            break;
        }
        pop = next;
        for (auto &[gk, g] : pop)
            g.setFitness(1.0);
        set.speciate(pop, gen + 1);
    }
    EXPECT_TRUE(extinct);
}

namespace
{

/** Structure-heavy config: every child adds a node and a connection. */
NeatConfig
forcedStructureConfig(bool feed_forward)
{
    NeatConfig cfg;
    cfg.numInputs = 3;
    cfg.numOutputs = 2;
    cfg.populationSize = 40;
    cfg.feedForward = feed_forward;
    cfg.nodeAddProb = 1.0;
    cfg.connAddProb = 1.0;
    // Deletions may remove a node the same child just added, so the
    // renumbering also sees gaps among the child-local keys.
    cfg.nodeDeleteProb = 0.3;
    cfg.connDeleteProb = 0.2;
    cfg.fitnessThreshold = 1e18; // never solve
    return cfg;
}

/** Cheap deterministic fitness from the genome's own genes. */
double
structuralFitness(const Genome &g)
{
    double f = 0.01 * static_cast<double>(g.numGenes());
    for (const ConnectionGene &cg : g.connections().values()) {
        if (cg.enabled)
            f += cg.weight;
    }
    return f;
}

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

void
expectSameGenome(const Genome &a, const Genome &b)
{
    ASSERT_EQ(a.key(), b.key());
    ASSERT_EQ(a.nodes().keys(), b.nodes().keys()) << "genome " << a.key();
    ASSERT_EQ(a.connections().keys(), b.connections().keys())
        << "genome " << a.key();
    for (size_t i = 0; i < a.numNodeGenes(); ++i) {
        const NodeGene &x = a.nodes().valueAt(i);
        const NodeGene &y = b.nodes().valueAt(i);
        EXPECT_EQ(x.key, y.key);
        EXPECT_EQ(bits(x.bias), bits(y.bias));
        EXPECT_EQ(bits(x.response), bits(y.response));
        EXPECT_EQ(x.activation, y.activation);
        EXPECT_EQ(x.aggregation, y.aggregation);
    }
    for (size_t i = 0; i < a.numConnectionGenes(); ++i) {
        const ConnectionGene &x = a.connections().valueAt(i);
        const ConnectionGene &y = b.connections().valueAt(i);
        EXPECT_EQ(x.key, y.key);
        EXPECT_EQ(bits(x.weight), bits(y.weight));
        EXPECT_EQ(x.enabled, y.enabled);
    }
    EXPECT_EQ(a.nodeDeletions(), b.nodeDeletions());
    ASSERT_EQ(a.hasFitness(), b.hasFitness());
    if (a.hasFitness()) {
        EXPECT_EQ(bits(a.fitness()), bits(b.fitness()));
    }
}

void
expectSameCounts(const MutationCounts &a, const MutationCounts &b)
{
    EXPECT_EQ(a.crossoverOps, b.crossoverOps);
    EXPECT_EQ(a.cloneOps, b.cloneOps);
    EXPECT_EQ(a.perturbOps, b.perturbOps);
    EXPECT_EQ(a.addOps, b.addOps);
    EXPECT_EQ(a.deleteOps, b.deleteOps);
}

void
expectSameTrace(const EvolutionTrace &a, const EvolutionTrace &b)
{
    EXPECT_EQ(a.generation, b.generation);
    ASSERT_EQ(a.children.size(), b.children.size());
    for (size_t i = 0; i < a.children.size(); ++i) {
        const ChildRecord &x = a.children[i];
        const ChildRecord &y = b.children[i];
        EXPECT_EQ(x.childKey, y.childKey);
        EXPECT_EQ(x.parent1Key, y.parent1Key);
        EXPECT_EQ(x.parent2Key, y.parent2Key);
        EXPECT_EQ(x.isElite, y.isElite);
        expectSameCounts(x.ops, y.ops);
        EXPECT_EQ(x.parent1Genes, y.parent1Genes);
        EXPECT_EQ(x.parent2Genes, y.parent2Genes);
        EXPECT_EQ(x.alignedStreamLen, y.alignedStreamLen);
        EXPECT_EQ(x.childNodeGenes, y.childNodeGenes);
        EXPECT_EQ(x.childConnGenes, y.childConnGenes);
    }
}

void
expectSameStats(const GenerationStats &a, const GenerationStats &b)
{
    EXPECT_EQ(a.generation, b.generation);
    EXPECT_EQ(bits(a.bestFitness), bits(b.bestFitness));
    EXPECT_EQ(bits(a.meanFitness), bits(b.meanFitness));
    EXPECT_EQ(a.bestGenomeKey, b.bestGenomeKey);
    EXPECT_EQ(a.totalGenes, b.totalGenes);
    EXPECT_EQ(a.memoryBytes, b.memoryBytes);
    EXPECT_EQ(a.evolutionOps, b.evolutionOps);
    expectSameCounts(a.opBreakdown, b.opBreakdown);
    EXPECT_EQ(a.maxParentReuse, b.maxParentReuse);
    EXPECT_EQ(a.numSpecies, b.numSpecies);
}

/** Everything an 8-generation run leaves behind, for comparison. */
struct BreedRun
{
    std::vector<std::map<int, Genome>> generations;
    std::vector<EvolutionTrace> traces;
    std::vector<GenerationStats> history;
    int nextNodeKey = 0;
};

/**
 * Evolve 8 generations with `exec` (empty = plain loop), checking
 * after every breeding step that each bred child is valid and that
 * the node keys the generation issued are contiguous in child order.
 */
BreedRun
breed(const NeatConfig &cfg, const Executor &exec)
{
    Population pop(cfg, 20261016, exec);
    BreedRun run;
    const auto fitness = [](const std::vector<GenomeHandle> &batch) {
        std::vector<double> fits;
        for (const GenomeHandle &h : batch)
            fits.push_back(structuralFitness(*h.genome));
        return fits;
    };
    for (int gen = 0; gen < 8; ++gen) {
        const int first_node = pop.reproduction().nodeIndexer().peek();
        EXPECT_FALSE(pop.stepBatch(fitness));
        run.generations.push_back(pop.genomes());
        run.traces.push_back(pop.traces().back());

        int expected = first_node;
        for (const ChildRecord &rec : pop.traces().back().children) {
            const Genome &child = pop.genomes().at(rec.childKey);
            child.validate(cfg);
            if (rec.isElite)
                continue;
            for (int nk : child.nodes().keys()) {
                if (nk >= first_node) {
                    EXPECT_EQ(nk, expected++) << "child " << rec.childKey;
                }
            }
        }
        EXPECT_EQ(expected, pop.reproduction().nodeIndexer().peek())
            << "generation " << gen << " issued node keys it never used";
        EXPECT_GT(expected, first_node)
            << "forced node additions issued no keys";
    }
    run.history = pop.history();
    run.nextNodeKey = pop.reproduction().nodeIndexer().peek();
    return run;
}

void
expectSameRun(const BreedRun &a, const BreedRun &b)
{
    ASSERT_EQ(a.generations.size(), b.generations.size());
    for (size_t g = 0; g < a.generations.size(); ++g) {
        ASSERT_EQ(a.generations[g].size(), b.generations[g].size());
        auto it = b.generations[g].begin();
        for (const auto &[gk, genome] : a.generations[g])
            expectSameGenome(genome, (it++)->second);
    }
    ASSERT_EQ(a.traces.size(), b.traces.size());
    for (size_t i = 0; i < a.traces.size(); ++i)
        expectSameTrace(a.traces[i], b.traces[i]);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (size_t i = 0; i < a.history.size(); ++i)
        expectSameStats(a.history[i], b.history[i]);
    EXPECT_EQ(a.nextNodeKey, b.nextNodeKey);
}

void
expectExecutorIndependent(bool feed_forward)
{
    const NeatConfig cfg = forcedStructureConfig(feed_forward);
    const BreedRun serial = breed(cfg, {});
    for (int threads : {1, 2, 4, 8}) {
        SCOPED_TRACE(::testing::Message() << threads << " workers");
        exec::ThreadPool pool(threads);
        const Executor on_pool =
            [&pool](size_t count, const std::function<void(size_t)> &body) {
                pool.parallelFor(count,
                                 [&body](size_t i, int) { body(i); });
            };
        expectSameRun(serial, breed(cfg, on_pool));
    }
}

} // namespace

TEST(ParallelBreeding, FeedForwardIsExecutorIndependent)
{
    expectExecutorIndependent(true);
}

TEST(ParallelBreeding, RecurrentIsExecutorIndependent)
{
    expectExecutorIndependent(false);
}

TEST(ParallelBreeding, AlignedStreamIsTheKeyUnion)
{
    // Three generations of forced structural mutation diverge the
    // genomes, so parents share some keys but not all; every bred
    // child's aligned stream must then be exactly the union of its
    // parents' keys (the EvE cycle model consumes it).
    const NeatConfig cfg = forcedStructureConfig(true);
    Population pop(cfg, 7);
    const auto fitness = [](const std::vector<GenomeHandle> &batch) {
        std::vector<double> fits;
        for (const GenomeHandle &h : batch)
            fits.push_back(structuralFitness(*h.genome));
        return fits;
    };
    for (int gen = 0; gen < 3; ++gen)
        ASSERT_FALSE(pop.stepBatch(fitness));

    const std::map<int, Genome> parents = pop.genomes();
    ASSERT_FALSE(pop.stepBatch(fitness));
    long bred = 0;
    long diverged = 0;
    for (const ChildRecord &rec : pop.traces().back().children) {
        if (rec.isElite)
            continue;
        const Genome &p1 = parents.at(rec.parent1Key);
        const Genome &p2 = parents.at(rec.parent2Key);
        const size_t want = keyUnionSize(p1, p2);
        EXPECT_EQ(rec.alignedStreamLen, want) << "child " << rec.childKey;
        ++bred;
        if (want > std::max(p1.numGenes(), p2.numGenes()))
            ++diverged;
    }
    EXPECT_GT(bred, 0);
    EXPECT_GT(diverged, 0) << "no parent pair had diverged structurally";
}
