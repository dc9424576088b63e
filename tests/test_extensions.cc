/**
 * @file
 * Tests for the extension features: power/clock gating (Section VI-D
 * discussion), recurrent phenotypes, and the ES weight tuner (Future
 * Directions hybrid mode).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "env/eval_fixtures.hh"
#include "hw/energy_model.hh"
#include "neat/per_genome.hh"
#include "neat/population.hh"
#include "neat/weight_tuner.hh"
#include "nn/plan_fixtures.hh"
#include "nn/recurrent.hh"

using namespace genesys;
using namespace genesys::neat;
using genesys::oracle::recConfig;
using genesys::oracle::selfLoopGenome;

// --- power gating ----------------------------------------------------------

TEST(GatedPower, FullDutyEqualsRoofline)
{
    hw::EnergyModel m;
    hw::SocParams soc;
    EXPECT_NEAR(m.gatedPower(soc, 1.0).totalMw(),
                m.rooflinePower(soc).totalMw(), 1e-9);
}

TEST(GatedPower, IdleSocSipsPower)
{
    hw::EnergyModel m;
    hw::SocParams soc;
    const auto idle = m.gatedPower(soc, 0.0);
    // Everything but the M0 gated to residual leakage.
    EXPECT_LT(idle.totalMw(), 50.0);
    EXPECT_DOUBLE_EQ(idle.m0Mw, m.rooflinePower(soc).m0Mw);
}

TEST(GatedPower, MonotoneInDuty)
{
    hw::EnergyModel m;
    hw::SocParams soc;
    double prev = 0.0;
    for (double d : {0.0, 0.01, 0.1, 0.5, 1.0}) {
        const double p = m.gatedPower(soc, d).totalMw();
        EXPECT_GT(p, prev);
        prev = p;
    }
}

TEST(GatedPower, RejectsBadDuty)
{
    hw::EnergyModel m;
    hw::SocParams soc;
    EXPECT_ANY_THROW(m.gatedPower(soc, -0.1));
    EXPECT_ANY_THROW(m.gatedPower(soc, 1.1));
}

// --- recurrent networks ------------------------------------------------------

TEST(Recurrent, SelfLoopIntegratesInput)
{
    const auto cfg = recConfig();
    auto net = nn::RecurrentNetwork::create(selfLoopGenome(1.0, 1.0),
                                            cfg);
    // y[t] = y[t-1] + x[t] -> a running sum.
    EXPECT_NEAR(net.activate({1.0})[0], 1.0, 1e-12);
    EXPECT_NEAR(net.activate({1.0})[0], 2.0, 1e-12);
    EXPECT_NEAR(net.activate({1.0})[0], 3.0, 1e-12);
}

TEST(Recurrent, ResetClearsState)
{
    const auto cfg = recConfig();
    auto net = nn::RecurrentNetwork::create(selfLoopGenome(1.0, 1.0),
                                            cfg);
    net.activate({5.0});
    net.activate({5.0});
    net.reset();
    EXPECT_NEAR(net.activate({1.0})[0], 1.0, 1e-12);
}

TEST(Recurrent, DecayingMemory)
{
    const auto cfg = recConfig();
    auto net = nn::RecurrentNetwork::create(selfLoopGenome(0.5, 1.0),
                                            cfg);
    net.activate({1.0}); // 1
    net.activate({0.0}); // 0.5
    EXPECT_NEAR(net.activate({0.0})[0], 0.25, 1e-12);
}

TEST(Recurrent, MatchesFeedForwardOnAcyclicGraphAtSteadyState)
{
    NeatConfig cfg;
    cfg.numInputs = 2;
    cfg.numOutputs = 1;
    // Deterministic two-level DAG: -1,-2 -> hidden 1 -> out 0, plus
    // -2 -> 0 (all nodes reachable, so the feed-forward and the
    // settled recurrent semantics agree).
    Genome g(0);
    NodeGene out;
    out.key = 0;
    out.bias = 0.3;
    NodeGene hid;
    hid.key = 1;
    hid.bias = -0.2;
    g.mutableNodes().emplace(0, out);
    g.mutableNodes().emplace(1, hid);
    auto conn = [&g](int a, int b, double w) {
        ConnectionGene c;
        c.key = {a, b};
        c.weight = w;
        g.mutableConnections().emplace(c.key, c);
    };
    conn(-1, 1, 0.8);
    conn(-2, 1, -0.6);
    conn(1, 0, 1.2);
    conn(-2, 0, 0.4);

    const auto ff = nn::FeedForwardNetwork::create(g, cfg);
    auto rec = nn::RecurrentNetwork::create(g, cfg);

    const std::vector<double> x{0.3, -0.7};
    const double expected = ff.activate(x)[0];
    // Hold the input; a DAG settles to the feed-forward value after
    // at most depth ticks.
    double got = 0.0;
    for (int t = 0; t < 12; ++t)
        got = rec.activate(x)[0];
    EXPECT_NEAR(got, expected, 1e-9);
}

TEST(Recurrent, MutatedCyclicGenomesEvaluateFinite)
{
    auto cfg = recConfig(3, 2);
    cfg.connAddProb = 0.6;
    cfg.nodeAddProb = 0.4;
    const auto g = genesys::oracle::grownGenome(cfg, 30, 4);
    auto net = nn::RecurrentNetwork::create(g, cfg);
    for (int t = 0; t < 50; ++t) {
        for (double v : net.activate({0.5, -0.5, 1.0}))
            EXPECT_TRUE(std::isfinite(v));
    }
}

TEST(Recurrent, FeedForwardFalseAllowsCyclesInMutation)
{
    auto cfg = recConfig(2, 1);
    cfg.feedForward = false;
    cfg.connAddProb = 1.0;
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(5);
    auto g = Genome::createNew(0, cfg, idx, rng);
    for (int i = 0; i < 5; ++i)
        g.mutateAddNode(cfg, idx, rng);
    // With the constraint off, many add-connection attempts should
    // eventually create at least one cycle.
    bool has_cycle = false;
    for (int i = 0; i < 300 && !has_cycle; ++i) {
        g.mutateAddConnection(cfg, rng);
        for (const auto &[ck, cg] : g.connections()) {
            auto rest = g.connections();
            rest.erase(ck);
            if (Genome::createsCycle(rest, ck)) {
                has_cycle = true;
                break;
            }
        }
    }
    EXPECT_TRUE(has_cycle);
}

// --- weight tuner --------------------------------------------------------------

namespace
{

/** Quadratic bowl over the first connection weight: max at w = 2. */
double
bowlFitness(const Genome &g)
{
    const double w = g.connections().begin()->second.weight;
    return -(w - 2.0) * (w - 2.0);
}

} // namespace

TEST(WeightTuner, ClimbsAQuadraticBowl)
{
    NeatConfig cfg;
    cfg.numInputs = 1;
    cfg.numOutputs = 1;
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(6);
    auto g = Genome::createNew(0, cfg, idx, rng);

    WeightTunerConfig tc;
    tc.iterations = 60;
    WeightTuner tuner(cfg, tc);
    const auto res = tuner.tune(g, bowlFitness, rng);

    EXPECT_GT(res.bestFitness, res.initialFitness);
    EXPECT_NEAR(res.best.connections().begin()->second.weight, 2.0,
                0.1);
    EXPECT_EQ(res.evaluations, 1 + tc.iterations * tc.offspring);
}

TEST(WeightTuner, PreservesTopology)
{
    NeatConfig cfg;
    cfg.numInputs = 2;
    cfg.numOutputs = 2;
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(7);
    auto g = Genome::createNew(0, cfg, idx, rng);
    g.mutateAddNode(cfg, idx, rng);

    WeightTuner tuner(cfg);
    const auto res = tuner.tune(
        g, [](const Genome &) { return 0.0; }, rng);
    EXPECT_EQ(res.best.numNodeGenes(), g.numNodeGenes());
    EXPECT_EQ(res.best.numConnectionGenes(), g.numConnectionGenes());
    for (const auto &[ck, cg] : g.connections())
        EXPECT_TRUE(res.best.connections().count(ck));
}

TEST(WeightTuner, RespectsAttributeBounds)
{
    NeatConfig cfg;
    cfg.numInputs = 1;
    cfg.numOutputs = 1;
    cfg.weight.minValue = -1.0;
    cfg.weight.maxValue = 1.0;
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(8);
    auto g = Genome::createNew(0, cfg, idx, rng);

    WeightTunerConfig tc;
    tc.sigma = 5.0; // violent perturbations
    tc.iterations = 20;
    WeightTuner tuner(cfg, tc);
    // Reward large weights: the tuner should saturate at the bound.
    const auto res = tuner.tune(
        g,
        [](const Genome &gg) {
            return gg.connections().begin()->second.weight;
        },
        rng);
    EXPECT_LE(res.best.connections().begin()->second.weight, 1.0);
    EXPECT_NEAR(res.best.connections().begin()->second.weight, 1.0,
                1e-9);
}

TEST(WeightTuner, ImprovesEvolvedXorSolution)
{
    // Topology-search-then-tune, the Future Directions hybrid: evolve
    // XOR briefly, freeze the best topology, tune weights only.
    NeatConfig cfg;
    cfg.numInputs = 2;
    cfg.numOutputs = 1;
    cfg.populationSize = 80;
    cfg.fitnessThreshold = 10.0; // never met: we want a partial genome

    auto xor_fitness = [&cfg](const Genome &g) {
        static const double xs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
        static const double ys[4] = {0, 1, 1, 0};
        const auto net = nn::FeedForwardNetwork::create(g, cfg);
        double f = 4.0;
        for (int i = 0; i < 4; ++i) {
            const double e = net.activate({xs[i][0], xs[i][1]})[0] -
                             ys[i];
            f -= e * e;
        }
        return f;
    };

    Population pop(cfg, 9);
    const auto batch_fitness = neat::oracle::perGenome(xor_fitness);
    for (int i = 0; i < 8; ++i)
        pop.stepBatch(batch_fitness);
    const Genome seed = pop.bestGenome();

    XorWow rng(10);
    WeightTunerConfig tc;
    tc.iterations = 40;
    WeightTuner tuner(cfg, tc);
    const auto res = tuner.tune(seed, xor_fitness, rng);
    EXPECT_GE(res.bestFitness, res.initialFitness);
}

TEST(WeightTuner, DeterministicGivenRng)
{
    NeatConfig cfg;
    cfg.numInputs = 1;
    cfg.numOutputs = 1;
    NodeIndexer idx(cfg.numOutputs);
    XorWow grng(11);
    auto g = Genome::createNew(0, cfg, idx, grng);
    WeightTuner tuner(cfg);
    XorWow r1(42), r2(42);
    const auto a = tuner.tune(g, bowlFitness, r1);
    const auto b = tuner.tune(g, bowlFitness, r2);
    EXPECT_DOUBLE_EQ(a.bestFitness, b.bestFitness);
}
