/**
 * @file
 * Tests for the population loop: the classic NEAT XOR benchmark,
 * per-generation statistics, trace bookkeeping and determinism.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "neat/population.hh"
#include "nn/feedforward.hh"
#include "obs/metrics.hh"

using namespace genesys;
using namespace genesys::neat;

namespace
{

NeatConfig
xorConfig()
{
    NeatConfig cfg;
    cfg.numInputs = 2;
    cfg.numOutputs = 1;
    cfg.populationSize = 150;
    cfg.fitnessThreshold = 3.9; // out of 4.0
    cfg.connAddProb = 0.5;
    cfg.connDeleteProb = 0.2;
    cfg.nodeAddProb = 0.3;
    cfg.nodeDeleteProb = 0.1;
    cfg.bias.initStdev = 1.0;
    return cfg;
}

/** Classic XOR fitness: 4 - sum of squared errors. */
double
xorFitness(const Genome &g, const NeatConfig &cfg)
{
    static const double xs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
    static const double ys[4] = {0, 1, 1, 0};
    const auto net = nn::FeedForwardNetwork::create(g, cfg);
    double fitness = 4.0;
    for (int i = 0; i < 4; ++i) {
        const auto out = net.activate({xs[i][0], xs[i][1]});
        const double e = out[0] - ys[i];
        fitness -= e * e;
    }
    return fitness;
}

} // namespace

TEST(Population, InitialPopulationSpeciated)
{
    const auto cfg = xorConfig();
    Population pop(cfg, 1);
    EXPECT_EQ(pop.genomes().size(), 150u);
    EXPECT_GE(pop.species().count(), 1u);
    EXPECT_EQ(pop.generation(), 0);
}

TEST(Population, StepRecordsStats)
{
    const auto cfg = xorConfig();
    Population pop(cfg, 2);
    pop.step([&cfg](const Genome &g) { return xorFitness(g, cfg); });
    ASSERT_EQ(pop.history().size(), 1u);
    const auto &s = pop.history().front();
    EXPECT_EQ(s.generation, 0);
    EXPECT_GT(s.totalGenes, 0);
    EXPECT_EQ(s.totalGenes, s.totalNodeGenes + s.totalConnectionGenes);
    EXPECT_EQ(s.memoryBytes, s.totalGenes * 8);
    EXPECT_GE(s.bestFitness, s.meanFitness);
    EXPECT_TRUE(pop.hasBest());
}

TEST(Population, SolvesXor)
{
    const auto cfg = xorConfig();
    // XOR is probabilistic; allow a couple of seeds.
    bool solved = false;
    for (uint64_t seed : {11ULL, 17ULL, 23ULL}) {
        Population pop(cfg, seed);
        const auto result = pop.run(
            [&cfg](const Genome &g) { return xorFitness(g, cfg); }, 150);
        if (result.solved) {
            solved = true;
            EXPECT_GE(result.bestFitness, 3.9);
            // The solution must actually compute XOR.
            const auto net =
                nn::FeedForwardNetwork::create(result.bestGenome, cfg);
            EXPECT_GT(net.activate({0, 1})[0], 0.5);
            EXPECT_GT(net.activate({1, 0})[0], 0.5);
            EXPECT_LT(net.activate({0, 0})[0], 0.5);
            EXPECT_LT(net.activate({1, 1})[0], 0.5);
            break;
        }
    }
    EXPECT_TRUE(solved);
}

TEST(Population, DeterministicGivenSeed)
{
    const auto cfg = xorConfig();
    Population a(cfg, 99), b(cfg, 99);
    auto fit = [&cfg](const Genome &g) { return xorFitness(g, cfg); };
    for (int i = 0; i < 5; ++i) {
        a.step(fit);
        b.step(fit);
    }
    ASSERT_EQ(a.history().size(), b.history().size());
    for (size_t i = 0; i < a.history().size(); ++i) {
        EXPECT_DOUBLE_EQ(a.history()[i].bestFitness,
                         b.history()[i].bestFitness);
        EXPECT_EQ(a.history()[i].totalGenes, b.history()[i].totalGenes);
        EXPECT_EQ(a.history()[i].evolutionOps,
                  b.history()[i].evolutionOps);
    }
}

TEST(Population, DifferentSeedsDiverge)
{
    const auto cfg = xorConfig();
    Population a(cfg, 1), b(cfg, 2);
    auto fit = [&cfg](const Genome &g) { return xorFitness(g, cfg); };
    for (int i = 0; i < 3; ++i) {
        a.step(fit);
        b.step(fit);
    }
    // Gene totals almost surely differ after mutations.
    EXPECT_NE(a.history().back().totalGenes,
              b.history().back().totalGenes);
}

TEST(Population, TracesMatchGenerations)
{
    const auto cfg = xorConfig();
    Population pop(cfg, 3);
    auto fit = [&cfg](const Genome &g) { return xorFitness(g, cfg); };
    for (int i = 0; i < 4; ++i)
        pop.step(fit);
    // 4 steps of an unsolved run -> 4 reproduction events... unless
    // solved early; tolerate both but sizes must be consistent.
    EXPECT_EQ(pop.traces().size(),
              static_cast<size_t>(pop.generation()));
    for (const auto &t : pop.traces())
        EXPECT_GT(t.children.size(), 0u);
}

TEST(Population, TraceWindowBoundsMemory)
{
    const auto cfg = xorConfig();
    Population pop(cfg, 4);
    pop.setTraceWindow(2);
    auto fit = [&cfg](const Genome &g) { return xorFitness(g, cfg); };
    for (int i = 0; i < 5; ++i)
        pop.step(fit);
    EXPECT_LE(pop.traces().size(), 2u);
}

TEST(Population, GeneCountGrowsFromMinimalTopology)
{
    const auto cfg = xorConfig();
    Population pop(cfg, 5);
    auto fit = [&cfg](const Genome &g) { return xorFitness(g, cfg); };
    for (int i = 0; i < 10; ++i)
        pop.step(fit);
    // Networks start minimal (Section III-B) and complexify
    // (Fig 4(b)).
    const long first = pop.history().front().totalGenes;
    const long last = pop.history().back().totalGenes;
    EXPECT_EQ(first, 150 * (1 + 2)); // 1 output node + 2 connections
    EXPECT_GT(last, first);
}

TEST(Population, AllGenomesEvaluatedEachGeneration)
{
    const auto cfg = xorConfig();
    Population pop(cfg, 6);
    int evals = 0;
    pop.step([&](const Genome &) { return static_cast<double>(evals++); });
    EXPECT_EQ(evals, 150);
}

TEST(Population, RunStopsAtThreshold)
{
    auto cfg = xorConfig();
    cfg.fitnessThreshold = 0.5;
    Population pop(cfg, 7);
    const auto result =
        pop.run([](const Genome &) { return 1.0; }, 50);
    EXPECT_TRUE(result.solved);
    EXPECT_EQ(result.generations, 1);
}

TEST(Population, NonFiniteFitnessRanksLowestAndRunContinues)
{
    // NaN and ±inf from a batch callback must never reach the sort
    // comparators: each is replaced by the batch's lowest finite
    // fitness, counted, and evolution carries on.
    auto cfg = xorConfig();
    cfg.populationSize = 40;
    cfg.fitnessThreshold = 1e18; // never solve
    Population pop(cfg, 8);

    obs::MetricsRegistry reg;
    obs::MetricsRegistry::install(&reg);
    const double poison[] = {std::nan(""), HUGE_VAL, -HUGE_VAL};
    long injected = 0;
    auto fitness = [&](const std::vector<GenomeHandle> &batch) {
        std::vector<double> fits;
        for (size_t i = 0; i < batch.size(); ++i) {
            if (i % 5 == 0) {
                fits.push_back(poison[(i / 5) % 3]);
                ++injected;
            } else {
                fits.push_back(xorFitness(*batch[i].genome, cfg));
            }
        }
        return fits;
    };
    for (int gen = 0; gen < 5; ++gen)
        EXPECT_FALSE(pop.stepBatch(fitness));

    // A batch with no finite fitness at all maps everything to 0.
    EXPECT_FALSE(pop.stepBatch([&](const std::vector<GenomeHandle> &b) {
        injected += static_cast<long>(b.size());
        return std::vector<double>(b.size(), std::nan(""));
    }));
    obs::MetricsRegistry::install(nullptr);

    ASSERT_EQ(pop.history().size(), 6u);
    for (const GenerationStats &s : pop.history()) {
        EXPECT_TRUE(std::isfinite(s.bestFitness));
        EXPECT_TRUE(std::isfinite(s.meanFitness));
        EXPECT_GE(s.bestFitness, s.meanFitness);
    }
    EXPECT_EQ(pop.history().back().bestFitness, 0.0);
    EXPECT_EQ(pop.history().back().meanFitness, 0.0);
    EXPECT_TRUE(std::isfinite(pop.bestGenome().fitness()));
    EXPECT_EQ(reg.counter("fitness.non_finite").value(), injected);
    EXPECT_EQ(pop.generation(), 6);
}
