/**
 * @file
 * Differential test harness for recurrent compiled plans.
 *
 * A recurrent nn::CompiledPlan (compileFor with feedForward == false)
 * must be bit-identical to the nn::RecurrentNetwork interpreter —
 * across ticks and across reset() — because the engine's
 * cross-thread determinism contract is built on exact equality. The
 * harness fuzzes ~1k random cyclic genomes through both paths with
 * multi-tick stateful episodes, pins the MAC accounting (interpreter
 * == plan == plan schedule — the hw cost model invariant), and checks
 * that a recurrent plan rejects a tick before reset(). The wide-tile
 * fuzz runs both numerics tiers against the tier-aware interpreter.
 *
 * Every genome derives from deriveSeed(kFuzzBase, index) via
 * common::rng, so any failure names a reproducible genome index.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>

#include "common/rng.hh"
#include "env/expect_eval.hh"
#include "nn/compiled_plan.hh"
#include "nn/plan_cache.hh"
#include "nn/plan_fixtures.hh"
#include "nn/recurrent.hh"

using namespace genesys;
using namespace genesys::neat;
using namespace genesys::nn;
using oracle::bitEqual;
using oracle::recConfig;
using oracle::selfLoopGenome;

namespace
{

constexpr uint64_t kFuzzBase = 0xD1B54A32D192ED03ULL;

/**
 * Random cyclic genome: mutation-grown under feedForward == false
 * (add-connection may create cycles), then structurally perturbed
 * with hostile shapes — disabled connections, dangling hidden nodes,
 * explicit self-loops and two-node cycles.
 */
Genome
fuzzGenome(const NeatConfig &cfg, XorWow &rng)
{
    NodeIndexer idx(cfg.numOutputs);
    Genome g = Genome::createNew(0, cfg, idx, rng);
    const int mutations = rng.uniformInt(0, 25);
    for (int m = 0; m < mutations; ++m)
        g.mutate(cfg, idx, rng);

    for (auto &&[ck, cg] : g.mutableConnections()) {
        if (rng.bernoulli(0.1))
            cg.enabled = false;
    }

    auto link = [&](int s, int d) {
        ConnectionGene c;
        c.key = {s, d};
        c.weight = rng.gaussian();
        g.mutableConnections().emplace(c.key, c);
    };

    // Output self-loop: the canonical single-node cycle.
    if (rng.bernoulli(0.5))
        link(0, 0);
    // Two-node cycle feeding an output.
    if (rng.bernoulli(0.6)) {
        const int a = idx.next();
        const int b = idx.next();
        g.mutableNodes().emplace(a, NodeGene::createNew(a, cfg, rng));
        g.mutableNodes().emplace(b, NodeGene::createNew(b, cfg, rng));
        link(a, b);
        link(b, a);
        link(-1, a);
        link(b, 0);
    }
    // Dangling hidden node with only an inbound edge.
    if (rng.bernoulli(0.4)) {
        const int dead = idx.next();
        g.mutableNodes().emplace(dead,
                                 NodeGene::createNew(dead, cfg, rng));
        link(-1, dead);
    }
    // Node fed by an out-of-graph source (the -1 slot sentinel case).
    if (rng.bernoulli(0.4)) {
        const int orphan = idx.next();
        g.mutableNodes().emplace(orphan,
                                 NodeGene::createNew(orphan, cfg, rng));
        link(orphan + 1000, orphan); // dangling source key
        link(orphan, 0);
    }
    // Fully isolated hidden node (still updates every tick).
    if (rng.bernoulli(0.3)) {
        const int iso = idx.next();
        g.mutableNodes().emplace(iso, NodeGene::createNew(iso, cfg, rng));
    }
    return g;
}

/**
 * A recurrent genome shaped for the Sum tiles at wide in-degrees. The
 * one recurrent span holds all 1-11 nodes; 128 inputs give
 * in-degrees from 1 edge to all 128 inputs, plus self-loops and
 * output-to-hidden back edges. Sum nodes mix with other aggregations
 * at a per-genome rate (rate 1.0 gives all-Sum spans, so runs of up
 * to 8 Sum nodes meet the tile width and density limits).
 */
constexpr int kWideInputs = 128;

Genome
groupGenome(const NeatConfig &cfg, XorWow &rng)
{
    static constexpr double kSumRates[] = {1.0, 0.75, 0.4};
    const double sum_rate = kSumRates[rng.uniformInt(3u)];
    const auto &acts = allActivations();
    Genome g(0);
    auto link = [&](int s, int d) {
        ConnectionGene c;
        c.key = {s, d};
        c.weight = rng.gaussian();
        g.mutableConnections().emplace(c.key, c);
    };
    const int nodes = rng.uniformInt(cfg.numOutputs, 11);
    for (int key = 0; key < nodes; ++key) {
        NodeGene ng;
        ng.key = key;
        ng.bias = rng.uniform(-1.0, 1.0);
        ng.response = rng.uniform(0.5, 1.5);
        ng.activation = acts[rng.uniformInt(
            static_cast<uint32_t>(acts.size()))];
        ng.aggregation = rng.bernoulli(sum_rate)
                             ? Aggregation::Sum
                             : static_cast<Aggregation>(rng.uniformInt(
                                   1, static_cast<int>(
                                          Aggregation::NumAggregations) -
                                          1));
        g.mutableNodes().emplace(key, ng);

        const int shape = rng.uniformInt(0, 2);
        const int degree = shape == 0   ? 1
                           : shape == 1 ? kWideInputs
                                        : rng.uniformInt(2, kWideInputs - 1);
        const int start = rng.uniformInt(0, kWideInputs - 1);
        for (int k = 0; k < degree; ++k)
            link(-1 - (start + k) % kWideInputs, key);
        if (rng.bernoulli(0.3))
            link(key, key);
        if (key > 0 && rng.bernoulli(0.5))
            link(rng.uniformInt(0, key - 1), key);
        if (key > 0 && rng.bernoulli(0.3))
            link(key, rng.uniformInt(0, key - 1));
    }
    return g;
}

std::vector<double>
randomInputs(const NeatConfig &cfg, XorWow &rng)
{
    std::vector<double> in(static_cast<size_t>(cfg.numInputs));
    for (auto &x : in)
        x = rng.uniform(-5.0, 5.0);
    return in;
}

} // namespace

// --- the differential fuzz ---------------------------------------------------

TEST(RecurrentPlanFuzz, MatchesInterpreterAcrossTicksAndReset)
{
    constexpr int kGenomes = 1000;
    constexpr int kTicks = 6;
    CompileScratch compile_scratch; // shared: reuse must not corrupt
    for (int i = 0; i < kGenomes; ++i) {
        XorWow rng(deriveSeed(kFuzzBase, static_cast<uint64_t>(i)));
        const NeatConfig cfg = oracle::planFuzzConfig(rng, false);
        const Genome g = fuzzGenome(cfg, rng);
        SCOPED_TRACE("fuzz genome " + std::to_string(i));

        auto net = RecurrentNetwork::create(g, cfg);
        const auto plan = CompiledPlan::compileFor(g, cfg, compile_scratch);

        ASSERT_TRUE(plan.isRecurrent());
        ASSERT_EQ(plan.numInputs(), net.numInputs());
        ASSERT_EQ(plan.numOutputs(), net.numOutputs());
        EXPECT_EQ(plan.macsPerInference(), net.macsPerInference());

        // Two stateful episodes over the same input stream, separated
        // by reset(): outputs must match the interpreter tick for
        // tick, and the second episode must replay the first exactly
        // (reset really clears all state on both paths).
        std::vector<std::vector<double>> stream;
        stream.reserve(kTicks);
        for (int t = 0; t < kTicks; ++t)
            stream.push_back(randomInputs(cfg, rng));

        PlanScratch scratch;
        std::vector<std::vector<double>> first_episode;
        for (int episode = 0; episode < 2; ++episode) {
            net.reset();
            plan.reset(scratch);
            for (int t = 0; t < kTicks; ++t) {
                const auto expect = net.activate(stream[static_cast<size_t>(t)]);
                plan.activate(stream[static_cast<size_t>(t)], scratch);
                ASSERT_EQ(scratch.outputs.size(), expect.size());
                for (size_t o = 0; o < expect.size(); ++o) {
                    EXPECT_TRUE(bitEqual(scratch.outputs[o], expect[o]))
                        << "episode " << episode << " tick " << t
                        << " output " << o;
                }
                if (episode == 0)
                    first_episode.push_back(scratch.outputs);
                else
                    EXPECT_EQ(scratch.outputs,
                              first_episode[static_cast<size_t>(t)])
                        << "reset did not clear state at tick " << t;
            }
        }
    }
}

TEST(RecurrentPlanFuzz, MacCountsAgreeAcrossAllPaths)
{
    // Satellite fix: the interpreter's macsPerInference, the plan's,
    // and the plan's embedded ADAM schedule must agree per tick, so
    // hw cost modeling cannot drift between execution paths.
    constexpr int kGenomes = 300;
    for (int i = 0; i < kGenomes; ++i) {
        XorWow rng(deriveSeed(kFuzzBase ^ 0x77AA, static_cast<uint64_t>(i)));
        const NeatConfig cfg = oracle::planFuzzConfig(rng, false);
        const Genome g = fuzzGenome(cfg, rng);
        SCOPED_TRACE("mac genome " + std::to_string(i));

        const auto net = RecurrentNetwork::create(g, cfg);
        const auto plan = CompiledPlan::compileFor(g, cfg);

        EXPECT_EQ(plan.macsPerInference(), net.macsPerInference());
        EXPECT_EQ(plan.schedule().totalMacs(), plan.macsPerInference());
        // Recurrent inference is one ready wave per tick: every node
        // gene updates simultaneously from the previous tick.
        ASSERT_LE(plan.schedule().layers.size(), 1u);
        if (!plan.schedule().layers.empty()) {
            EXPECT_EQ(plan.schedule().layers[0].numNodes,
                      static_cast<int>(g.nodes().size()));
            EXPECT_EQ(plan.layerSpans().size(), 1u);
        }
    }
}

TEST(RecurrentPlanFuzz, PackedLayerCountsDistinctSources)
{
    // The one packed layer's vectorLen is the number of distinct
    // sources over every node's enabled in-edges, counted the way a
    // sort + unique over the lowered source indices counts them:
    // every source key that names no gene lowers to the same -1
    // sentinel, so they count once between them.
    constexpr int kGenomes = 300;
    for (int i = 0; i < kGenomes; ++i) {
        XorWow rng(deriveSeed(kFuzzBase ^ 0x5EC7, static_cast<uint64_t>(i)));
        const NeatConfig cfg = oracle::planFuzzConfig(rng, false);
        Genome g = fuzzGenome(cfg, rng);
        // Two more dangling source keys on some genomes, so several
        // distinct keys share the sentinel.
        if (i % 2 == 0) {
            const int newest = g.nodes().keys().back();
            for (int s : {-cfg.numInputs - 1, newest + 500}) {
                ConnectionGene c;
                c.key = {s, newest};
                c.weight = rng.gaussian();
                g.mutableConnections().emplace(c.key, c);
            }
        }
        SCOPED_TRACE("vectorLen genome " + std::to_string(i));

        constexpr int kSentinel = std::numeric_limits<int>::min();
        std::vector<int> sources;
        for (const auto &[ck, cg] : g.connections()) {
            if (!cg.enabled || !g.nodes().contains(ck.second))
                continue;
            const bool resolvable =
                (ck.first < 0 && ck.first >= -cfg.numInputs) ||
                g.nodes().contains(ck.first);
            sources.push_back(resolvable ? ck.first : kSentinel);
        }
        std::sort(sources.begin(), sources.end());
        const auto distinct = static_cast<int>(
            std::unique(sources.begin(), sources.end()) - sources.begin());

        const auto plan = CompiledPlan::compileFor(g, cfg);
        ASSERT_EQ(plan.schedule().layers.size(), 1u);
        EXPECT_EQ(plan.schedule().layers[0].vectorLen, distinct);
    }
}

TEST(RecurrentPlanFuzz, LockstepSumGroupsMatchSerialChains)
{
    // The recurrent tick packs runs of up to 8 Sum nodes into tiles.
    // Each node must still add its edges in its own order: in both
    // tiers every tick must equal the interpreter's, bit for bit.
    constexpr int kGenomes = 400;
    constexpr int kTicks = 4;
    constexpr NumericsTier kTiers[] = {NumericsTier::Reference,
                                       NumericsTier::HwFaithful};
    for (int i = 0; i < kGenomes; ++i) {
        XorWow rng(deriveSeed(kFuzzBase ^ 0x4C0C, static_cast<uint64_t>(i)));
        NeatConfig cfg;
        cfg.numInputs = kWideInputs;
        cfg.numOutputs = rng.uniformInt(1, 6);
        cfg.feedForward = false;
        const Genome g = groupGenome(cfg, rng);
        SCOPED_TRACE("group genome " + std::to_string(i));
        std::vector<RecurrentNetwork> nets;
        std::vector<CompiledPlan> plans;
        std::vector<PlanScratch> scratch(std::size(kTiers));
        for (size_t k = 0; k < std::size(kTiers); ++k) {
            nets.push_back(RecurrentNetwork::create(g, cfg, kTiers[k]));
            plans.push_back(CompiledPlan::compileFor(g, cfg, kTiers[k]));
            plans[k].reset(scratch[k]);
        }
        for (int t = 0; t < kTicks; ++t) {
            std::vector<double> in(static_cast<size_t>(cfg.numInputs));
            for (auto &x : in)
                x = rng.uniform(-2.0, 2.0);
            for (size_t k = 0; k < std::size(kTiers); ++k) {
                plans[k].activate(in, scratch[k]);
                const auto expect = nets[k].activate(in);
                ASSERT_EQ(scratch[k].outputs.size(), expect.size());
                for (size_t o = 0; o < expect.size(); ++o) {
                    EXPECT_TRUE(bitEqual(scratch[k].outputs[o], expect[o]))
                        << "tier " << static_cast<int>(kTiers[k])
                        << " tick " << t << " output " << o;
                }
            }
        }
    }
}

// --- targeted recurrent plan semantics ---------------------------------------

TEST(RecurrentPlan, SelfLoopIntegratesInput)
{
    const auto cfg = recConfig();
    const auto plan =
        CompiledPlan::compileFor(selfLoopGenome(1.0, 1.0), cfg);
    PlanScratch s;
    plan.reset(s);
    const std::vector<double> one{1.0};
    // y[t] = y[t-1] + x[t] -> a running sum.
    plan.activate(one, s);
    EXPECT_NEAR(s.outputs[0], 1.0, 1e-12);
    plan.activate(one, s);
    EXPECT_NEAR(s.outputs[0], 2.0, 1e-12);
    plan.activate(one, s);
    EXPECT_NEAR(s.outputs[0], 3.0, 1e-12);

    plan.reset(s);
    plan.activate(one, s);
    EXPECT_NEAR(s.outputs[0], 1.0, 1e-12);
}

TEST(RecurrentPlan, CompileForDispatchesOnConfigMode)
{
    auto cfg = recConfig();
    const Genome g = selfLoopGenome(0.5, 1.0);

    const auto rec = CompiledPlan::compileFor(g, cfg);
    EXPECT_TRUE(rec.isRecurrent());

    cfg.feedForward = true;
    const auto ff = CompiledPlan::compileFor(g, cfg);
    EXPECT_FALSE(ff.isRecurrent());
    // Feed-forward lowering of a cyclic genome: the cycle never
    // becomes ready, the output reads 0 (documented fallback
    // semantics, unchanged).
    PlanScratch s;
    const std::vector<double> one{1.0};
    ff.activate(one, s);
    EXPECT_DOUBLE_EQ(s.outputs[0], 0.0);
}

TEST(RecurrentPlan, TickWithoutResetThrows)
{
    const auto cfg = recConfig();
    const auto plan =
        CompiledPlan::compileFor(selfLoopGenome(1.0, 1.0), cfg);
    PlanScratch s;
    const std::vector<double> one{1.0};
    // Ticking without reset is a contract violation, not silent UB.
    EXPECT_ANY_THROW(plan.activate(one, s));
}

TEST(RecurrentPlan, PlanCacheServesRecurrentPlansWithCarryOver)
{
    const auto cfg = recConfig();
    const Genome g = selfLoopGenome(1.0, 1.0);

    PlanCache cache;
    cache.beginGeneration(std::vector<neat::GenomeHandle>{{7, &g}});
    const auto p1 = cache.acquire(0, g, cfg);
    ASSERT_TRUE(p1->isRecurrent());
    EXPECT_EQ(cache.compiles(), 1);

    // Same key next generation (an elite), now behind a fresh key:
    // carried over, no recompile.
    cache.beginGeneration(
        std::vector<neat::GenomeHandle>{{8, &g}, {7, &g}});
    const auto p2 = cache.acquire(1, g, cfg);
    EXPECT_EQ(p2.get(), p1.get());
    EXPECT_EQ(cache.compiles(), 1);
    EXPECT_EQ(cache.carriedOver(), 1);

    PlanScratch s;
    p2->reset(s);
    const std::vector<double> one{1.0};
    p2->activate(one, s);
    EXPECT_NEAR(s.outputs[0], 1.0, 1e-12);
    p2->activate(one, s);
    EXPECT_NEAR(s.outputs[0], 2.0, 1e-12);
}
