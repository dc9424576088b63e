/**
 * @file
 * Differential test harness for compiled phenotype plans.
 *
 * The compiled path (nn::CompiledPlan) must be bit-identical to the
 * FeedForwardNetwork interpreter — not approximately equal — because
 * the whole engine's cross-thread determinism contract is built on
 * exact equality. The harness fuzzes ~1k random genomes (varied
 * activations/aggregations, disabled connections, dangling hidden
 * nodes, recurrent cycles) through both paths in both numerics tiers
 * (the interpreter takes the tier too), and separately pins
 * the rewritten graph analysis against a straight transcription of
 * the original (pre-optimization) layering algorithm, since both
 * production paths now share the new analysis code.
 *
 * Every genome derives from deriveSeed(kFuzzBase, index) via
 * common::rng, so any failure names a reproducible genome index.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>

#include "common/rng.hh"
#include "env/eval_fixtures.hh"
#include "env/expect_eval.hh"
#include "nn/compiled_plan.hh"
#include "nn/levelize.hh"
#include "nn/plan_fixtures.hh"
#include "nn/recurrent.hh"

using namespace genesys;
using namespace genesys::neat;
using namespace genesys::nn;
using oracle::bitEqual;

namespace
{

constexpr uint64_t kFuzzBase = 0x9E3779B97F4A7C15ULL;

/**
 * The feed-forward plan of `g`. planFuzzConfig grows cyclic genomes
 * under feedForward == false; their feed-forward lowering must leave
 * the cycles unevaluated exactly as the interpreter does.
 */
CompiledPlan
feedForwardPlan(const Genome &g, NeatConfig cfg,
                NumericsTier tier = NumericsTier::Reference)
{
    cfg.feedForward = true;
    return CompiledPlan::compileFor(g, cfg, tier);
}

/**
 * Random genome: mutation-grown, then structurally perturbed with the
 * hostile shapes the plan compiler must survive — disabled
 * connections, dangling hidden nodes (no inputs / no outputs), and
 * explicit two-node cycles when allowed.
 */
Genome
fuzzGenome(const NeatConfig &cfg, XorWow &rng, bool allow_cycles)
{
    NodeIndexer idx(cfg.numOutputs);
    Genome g = Genome::createNew(0, cfg, idx, rng);
    const int mutations = rng.uniformInt(0, 25);
    for (int m = 0; m < mutations; ++m)
        g.mutate(cfg, idx, rng);

    // Disable a few random connections outright.
    for (auto &&[ck, cg] : g.mutableConnections()) {
        if (rng.bernoulli(0.1))
            cg.enabled = false;
    }

    // Dangling hidden node with an inbound edge but no outbound one
    // (dead end: not required for output).
    if (rng.bernoulli(0.5)) {
        const int dead = idx.next();
        NodeGene ng = NodeGene::createNew(dead, cfg, rng);
        g.mutableNodes().emplace(dead, ng);
        ConnectionGene c;
        c.key = {-1, dead};
        c.weight = rng.gaussian();
        g.mutableConnections().emplace(c.key, c);
    }
    // Dangling hidden node with an outbound edge but no inbound one
    // (never "ready": required but unresolvable, the sentinel-slot
    // case).
    if (rng.bernoulli(0.5)) {
        const int orphan = idx.next();
        NodeGene ng = NodeGene::createNew(orphan, cfg, rng);
        g.mutableNodes().emplace(orphan, ng);
        ConnectionGene c;
        c.key = {orphan, 0};
        c.weight = rng.gaussian();
        g.mutableConnections().emplace(c.key, c);
    }
    // Fully isolated hidden node.
    if (rng.bernoulli(0.3)) {
        const int iso = idx.next();
        g.mutableNodes().emplace(iso, NodeGene::createNew(iso, cfg, rng));
    }

    if (allow_cycles && rng.bernoulli(0.8)) {
        // A two-node recurrent cycle hanging off the graph, plus an
        // edge into an output so the cycle is upstream of something
        // required.
        const int a = idx.next();
        const int b = idx.next();
        g.mutableNodes().emplace(a, NodeGene::createNew(a, cfg, rng));
        g.mutableNodes().emplace(b, NodeGene::createNew(b, cfg, rng));
        auto link = [&](int s, int d) {
            ConnectionGene c;
            c.key = {s, d};
            c.weight = rng.gaussian();
            g.mutableConnections().emplace(c.key, c);
        };
        link(a, b);
        link(b, a);
        link(-1, a); // fed by an input, still never ready
        link(b, 0);  // feeds an output: cycle members become required
    }
    return g;
}

/**
 * Straight transcription of the original requiredForOutput /
 * feedForwardLayers algorithms (pre-adjacency-rewrite), kept as the
 * reference the production analysis is diffed against.
 */
std::set<int>
referenceRequired(const Genome &genome, const NeatConfig &cfg)
{
    std::set<int> required;
    for (int out : Genome::outputKeys(cfg))
        required.insert(out);
    std::set<int> frontier = required;
    while (!frontier.empty()) {
        std::set<int> next;
        for (const auto &[ck, cg] : genome.connections()) {
            if (!cg.enabled)
                continue;
            const auto [src, dst] = ck;
            if (frontier.count(dst) && !required.count(src) && src >= 0) {
                required.insert(src);
                next.insert(src);
            }
        }
        frontier = std::move(next);
    }
    return required;
}

std::vector<std::vector<int>>
referenceLayers(const Genome &genome, const NeatConfig &cfg)
{
    const std::set<int> required = referenceRequired(genome, cfg);
    std::set<int> have;
    for (int in : Genome::inputKeys(cfg))
        have.insert(in);

    std::vector<std::vector<int>> layers;
    while (true) {
        std::set<int> candidates;
        for (const auto &[ck, cg] : genome.connections()) {
            if (!cg.enabled)
                continue;
            if (have.count(ck.first) && !have.count(ck.second))
                candidates.insert(ck.second);
        }
        std::vector<int> layer;
        for (int n : candidates) {
            if (!required.count(n))
                continue;
            bool ready = true;
            for (const auto &[ck, cg] : genome.connections()) {
                if (cg.enabled && ck.second == n && !have.count(ck.first)) {
                    ready = false;
                    break;
                }
            }
            if (ready)
                layer.push_back(n);
        }
        if (layer.empty())
            break;
        std::sort(layer.begin(), layer.end());
        for (int n : layer)
            have.insert(n);
        layers.push_back(std::move(layer));
    }
    return layers;
}

} // namespace

// --- the differential fuzz ---------------------------------------------------

TEST(CompiledPlanFuzz, MatchesInterpreterBitForBit)
{
    constexpr int kGenomes = 1000;
    NeatConfig dense_cfg;
    dense_cfg.numInputs = 8;
    dense_cfg.numOutputs = 4;
    // The random genomes, then the pinned dense one.
    for (int i = 0; i <= kGenomes; ++i) {
        XorWow rng(deriveSeed(kFuzzBase, static_cast<uint64_t>(i)));
        const bool allow_cycles = i % 4 == 3;
        const NeatConfig cfg = i < kGenomes
                                   ? oracle::planFuzzConfig(rng, !allow_cycles)
                                   : dense_cfg;
        const Genome g = i < kGenomes ? fuzzGenome(cfg, rng, allow_cycles)
                                      : oracle::denseGenome(cfg, 64, 42);
        SCOPED_TRACE("fuzz genome " + std::to_string(i));

        for (NumericsTier tier :
             {NumericsTier::Reference, NumericsTier::HwFaithful}) {
            SCOPED_TRACE("tier " + std::to_string(static_cast<int>(tier)));
            const auto net = FeedForwardNetwork::create(g, cfg, tier);
            const auto plan = feedForwardPlan(g, cfg, tier);

            ASSERT_EQ(plan.numInputs(), net.numInputs());
            ASSERT_EQ(plan.numOutputs(), net.numOutputs());
            EXPECT_EQ(plan.macsPerInference(), net.macsPerInference());
            EXPECT_EQ(plan.layerSpans().size(), net.layers().size());

            PlanScratch scratch;
            for (int t = 0; t < 4; ++t) {
                std::vector<double> in(static_cast<size_t>(cfg.numInputs));
                for (auto &x : in)
                    x = rng.uniform(-5.0, 5.0);
                const auto expect = net.activate(in);
                plan.activate(in, scratch);
                ASSERT_EQ(scratch.outputs.size(), expect.size());
                for (size_t o = 0; o < expect.size(); ++o) {
                    EXPECT_TRUE(bitEqual(scratch.outputs[o], expect[o]))
                        << "output " << o << " trial " << t;
                }
            }
        }
    }
}

/**
 * A genome shaped for the Sum tiles at wide in-degrees: 128 inputs,
 * 1-11 nodes per layer, in-degrees of 1 edge, all 128 inputs or
 * anything between, and Sum nodes mixed with other aggregations at a
 * per-genome rate (rate 1.0 gives all-Sum layers, so runs of up to 8
 * Sum nodes meet the tile width and density limits). Every hidden
 * node feeds a random output, which puts that output in layer 2.
 */
constexpr int kWideInputs = 128;

NeatConfig
groupConfig(XorWow &rng)
{
    NeatConfig cfg;
    cfg.numInputs = kWideInputs;
    cfg.numOutputs = rng.uniformInt(1, 6);
    return cfg;
}

Genome
groupGenome(const NeatConfig &cfg, XorWow &rng)
{
    static constexpr double kSumRates[] = {1.0, 0.75, 0.4};
    const double sum_rate = kSumRates[rng.uniformInt(3u)];
    const auto &acts = allActivations();
    Genome g(0);
    auto add_node = [&](int key) {
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
    };
    auto link = [&](int s, int d) {
        ConnectionGene c;
        c.key = {s, d};
        c.weight = rng.gaussian();
        g.mutableConnections().emplace(c.key, c);
    };
    auto feed_from_inputs = [&](int d) {
        const int shape = rng.uniformInt(0, 2);
        const int degree = shape == 0   ? 1
                           : shape == 1 ? kWideInputs
                                        : rng.uniformInt(2, kWideInputs - 1);
        const int start = rng.uniformInt(0, kWideInputs - 1);
        for (int k = 0; k < degree; ++k)
            link(-1 - (start + k) % kWideInputs, d);
    };
    const int hidden = rng.uniformInt(0, 11 - cfg.numOutputs);
    for (int key = 0; key < cfg.numOutputs + hidden; ++key)
        add_node(key);
    for (int h = cfg.numOutputs; h < cfg.numOutputs + hidden; ++h) {
        feed_from_inputs(h);
        link(h, rng.uniformInt(0, cfg.numOutputs - 1));
    }
    for (int o = 0; o < cfg.numOutputs; ++o) {
        if (rng.bernoulli(0.9))
            feed_from_inputs(o);
    }
    return g;
}

/**
 * Hostile variant of a fuzz genome for the schedule check: every
 * other node switched to a non-Sum aggregation (their out-of-graph
 * sources stay in the edge arrays as -1 sentinels), plus edges from
 * source keys that name no gene — below the input range and above
 * every node key — into the newest node and sometimes output 0.
 */
Genome
withDanglingSources(Genome g, const NeatConfig &cfg, XorWow &rng)
{
    int n = 0;
    for (auto &&[nk, ng] : g.mutableNodes()) {
        if (n++ % 2 == 0)
            ng.aggregation = rng.bernoulli(0.5) ? Aggregation::Median
                                                : Aggregation::Max;
    }
    const int newest = g.nodes().keys().back();
    const int above = newest + 1000;
    auto link = [&](int s, int d) {
        ConnectionGene c;
        c.key = {s, d};
        c.weight = rng.gaussian();
        g.mutableConnections().emplace(c.key, c);
    };
    link(-cfg.numInputs - 3, newest);
    link(above, newest);
    if (rng.bernoulli(0.5))
        link(above + 1, 0);
    return g;
}

TEST(CompiledPlanFuzz, LockstepSumGroupsMatchSerialChains)
{
    // The kernel packs runs of up to 8 Sum nodes into tiles. Each node
    // must still add its edges in its own order: in both tiers the
    // outputs must equal the interpreter's, which adds one node's
    // edges at a time, bit for bit.
    constexpr int kGenomes = 400;
    constexpr int kTrials = 3;
    for (int i = 0; i < kGenomes; ++i) {
        XorWow rng(deriveSeed(kFuzzBase ^ 0x4C0C, static_cast<uint64_t>(i)));
        const NeatConfig cfg = groupConfig(rng);
        const Genome g = groupGenome(cfg, rng);
        for (NumericsTier tier :
             {NumericsTier::Reference, NumericsTier::HwFaithful}) {
            SCOPED_TRACE("group genome " + std::to_string(i) + " tier " +
                         std::to_string(static_cast<int>(tier)));
            const auto net = FeedForwardNetwork::create(g, cfg, tier);
            const auto plan = CompiledPlan::compileFor(g, cfg, tier);
            PlanScratch scratch;
            for (int t = 0; t < kTrials; ++t) {
                std::vector<double> in(static_cast<size_t>(cfg.numInputs));
                for (auto &x : in)
                    x = rng.uniform(-2.0, 2.0);
                plan.activate(in, scratch);
                const auto expect = net.activate(in);
                ASSERT_EQ(scratch.outputs.size(), expect.size());
                for (size_t o = 0; o < expect.size(); ++o) {
                    EXPECT_TRUE(bitEqual(scratch.outputs[o], expect[o]))
                        << "output " << o << " trial " << t;
                }
            }
        }
    }
}

/**
 * A genome shaped for the tile kernels: 16 inputs, up to 8 outputs and
 * up to 8 hidden nodes, so a layer holds 1-8 consecutive Sum nodes and
 * tiles of every width occur. A node's sources are a random subset of
 * the inputs (any density), all of them, or exactly half of a shared
 * row set, which makes the tile exactly half padding. Hidden nodes
 * feed outputs; in recurrent genomes they also feed each other and
 * some nodes have no in-edges at all. Zero weights come in both signs,
 * and biases of +-0 with an Identity activation make the sign of a
 * zero sum visible in the output. Most nodes aggregate with Sum; the
 * rest break Sum runs into separate tiles.
 */
constexpr int kTileInputs = 16;

Genome
tileGenome(const NeatConfig &cfg, XorWow &rng)
{
    const int hidden = rng.uniformInt(0, 8);
    const bool recurrent = !cfg.feedForward;
    const bool zero_weights = rng.bernoulli(0.15);
    const auto &acts = allActivations();
    Genome g(0);
    auto add_node = [&](int key) {
        NodeGene ng;
        ng.key = key;
        ng.bias = rng.bernoulli(0.5) ? (rng.bernoulli(0.5) ? 0.0 : -0.0)
                                     : rng.uniform(-1.0, 1.0);
        ng.response = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.5, 1.5);
        ng.activation = rng.bernoulli(0.5)
                            ? Activation::Identity
                            : acts[rng.uniformInt(
                                  static_cast<uint32_t>(acts.size()))];
        ng.aggregation =
            rng.bernoulli(0.9)
                ? Aggregation::Sum
                : static_cast<Aggregation>(rng.uniformInt(
                      1, static_cast<int>(Aggregation::NumAggregations) - 1));
        g.mutableNodes().emplace(key, ng);
    };
    auto weight = [&] {
        if (zero_weights || rng.bernoulli(0.15))
            return rng.bernoulli(0.5) ? 0.0 : -0.0;
        return rng.gaussian();
    };
    auto link = [&](int s, int d) {
        ConnectionGene c;
        c.key = {s, d};
        c.weight = weight();
        g.mutableConnections().emplace(c.key, c);
    };
    // The shared row set of the exactly-half shape: an even count.
    const int half_rows = 2 * rng.uniformInt(1, kTileInputs / 2);
    const int half_start = rng.uniformInt(0, kTileInputs - 1);
    auto feed_from_inputs = [&](int d) {
        switch (rng.uniformInt(0, 3)) {
          case 0: // a random subset, any density
            for (int i = 1; i <= kTileInputs; ++i) {
                if (rng.bernoulli(0.4))
                    link(-i, d);
            }
            break;
          case 1: // every input
            for (int i = 1; i <= kTileInputs; ++i)
                link(-i, d);
            break;
          default: { // half of the shared rows: tiles exactly half pad
            const int offset = rng.uniformInt(0, 1);
            for (int r = offset; r < half_rows; r += 2)
                link(-1 - (half_start + r) % kTileInputs, d);
          }
        }
    };
    for (int key = 0; key < cfg.numOutputs + hidden; ++key)
        add_node(key);
    for (int h = cfg.numOutputs; h < cfg.numOutputs + hidden; ++h) {
        if (recurrent && rng.bernoulli(0.2))
            continue; // in-degree 0: a column of pads only
        feed_from_inputs(h);
        if (recurrent && rng.bernoulli(0.5))
            link(cfg.numOutputs + rng.uniformInt(0, hidden - 1), h);
    }
    for (int o = 0; o < cfg.numOutputs; ++o) {
        if (rng.bernoulli(0.9))
            feed_from_inputs(o);
        for (int h = cfg.numOutputs; h < cfg.numOutputs + hidden; ++h) {
            if (rng.bernoulli(0.3))
                link(h, o);
        }
    }
    return g;
}

/**
 * Bit equality, except that any NaN matches any NaN. Which NaN an
 * operation on two NaNs returns depends on operand order (x86 keeps
 * the first operand's), and a compiler may commute an addition, so
 * NaN payloads are not part of the bit-identity contract.
 */
::testing::AssertionResult
sameValue(double a, double b)
{
    if (std::isnan(a) && std::isnan(b))
        return ::testing::AssertionSuccess();
    return bitEqual(a, b);
}

/**
 * Tile-kernel inputs: mostly finite, with -0.0, +-inf and NaN mixed in
 * on a share of trials, so they land on rows some columns only pad.
 */
std::vector<double>
hostileInputs(XorWow &rng)
{
    std::vector<double> in(kTileInputs);
    const bool hostile = rng.bernoulli(0.6);
    const bool negative_zero = rng.bernoulli(0.1);
    for (double &x : in) {
        x = negative_zero ? -0.0 : rng.uniform(-2.0, 2.0);
        if (!hostile)
            continue;
        switch (rng.uniformInt(0, 9)) {
          case 0: x = std::numeric_limits<double>::infinity(); break;
          case 1: x = -std::numeric_limits<double>::infinity(); break;
          case 2: x = std::numeric_limits<double>::quiet_NaN(); break;
          case 3: x = -0.0; break;
          default: break;
        }
    }
    return in;
}

TEST(CompiledPlanFuzz, TilesMatchOraclesOnHostileValues)
{
    // A pad adds x * +0.0, which is +-0 for finite x and NaN for an
    // infinite or NaN x, so tiles are exact only because their sums
    // start at +0.0 and a NaN tile is recomputed without its pads. For
    // feed-forward and recurrent genomes in both tiers, the plan runs
    // kStreams independent input streams, each against its own
    // interpreter of the same tier, tick by tick, bit for bit (a NaN
    // only has to meet a NaN, see sameValue).
    constexpr int kGenomes = 300;
    constexpr int kTicks = 4;
    constexpr int kStreams = 4;
    for (int i = 0; i < kGenomes; ++i) {
        XorWow rng(deriveSeed(kFuzzBase ^ 0x711E, static_cast<uint64_t>(i)));
        NeatConfig cfg;
        cfg.numInputs = kTileInputs;
        cfg.numOutputs = rng.uniformInt(1, 8);
        cfg.feedForward = i % 2 == 0;
        const Genome g = tileGenome(cfg, rng);
        for (NumericsTier tier :
             {NumericsTier::Reference, NumericsTier::HwFaithful}) {
            SCOPED_TRACE("tile genome " + std::to_string(i) + " tier " +
                         std::to_string(static_cast<int>(tier)) +
                         (cfg.feedForward ? " feed-forward" : " recurrent"));
            const auto plan = CompiledPlan::compileFor(g, cfg, tier);
            const auto ff = FeedForwardNetwork::create(g, cfg, tier);
            std::vector<RecurrentNetwork> rec;
            std::vector<PlanScratch> scratch(kStreams);
            for (PlanScratch &s : scratch) {
                plan.reset(s);
                if (!cfg.feedForward)
                    rec.push_back(RecurrentNetwork::create(g, cfg, tier));
            }
            for (int t = 0; t < kTicks; ++t) {
                for (size_t l = 0; l < kStreams; ++l) {
                    const std::vector<double> in = hostileInputs(rng);
                    plan.activate(in, scratch[l]);
                    const auto expect = cfg.feedForward ? ff.activate(in)
                                                        : rec[l].activate(in);
                    ASSERT_EQ(scratch[l].outputs.size(), expect.size());
                    for (size_t o = 0; o < expect.size(); ++o) {
                        EXPECT_TRUE(sameValue(scratch[l].outputs[o],
                                              expect[o]))
                            << "stream " << l << " tick " << t
                            << " output " << o;
                    }
                }
            }
        }
    }
}

TEST(CompiledPlanFuzz, ScheduleAgreesWithLevelizer)
{
    // The plan's embedded ADAM schedule and the standalone levelizer
    // must describe identical packed layers — the "cost model agrees
    // with execution by construction" invariant. Each genome is
    // checked as grown and in its withDanglingSources() variant.
    constexpr int kGenomes = 250;
    for (int i = 0; i < kGenomes; ++i) {
        XorWow rng(deriveSeed(kFuzzBase ^ 0xABCD, static_cast<uint64_t>(i)));
        const bool allow_cycles = i % 5 == 4;
        const NeatConfig cfg = oracle::planFuzzConfig(rng, !allow_cycles);
        const Genome grown = fuzzGenome(cfg, rng, allow_cycles);
        const Genome hostile = withDanglingSources(grown, cfg, rng);
        for (const Genome *g : {&grown, &hostile}) {
            SCOPED_TRACE("schedule genome " + std::to_string(i) +
                         (g == &hostile ? " (dangling sources)" : ""));
            const auto plan = feedForwardPlan(*g, cfg);
            const auto ref = levelize(*g, cfg);
            const InferenceSchedule &sched = plan.schedule();
            ASSERT_EQ(sched.layers.size(), ref.layers.size());
            for (size_t l = 0; l < ref.layers.size(); ++l) {
                EXPECT_EQ(sched.layers[l].numNodes,
                          ref.layers[l].numNodes);
                EXPECT_EQ(sched.layers[l].vectorLen,
                          ref.layers[l].vectorLen);
                EXPECT_EQ(sched.layers[l].weights, ref.layers[l].weights);
            }
            EXPECT_EQ(sched.totalMacs(), plan.macsPerInference());
        }
    }
}

TEST(GraphAnalysisFuzz, MatchesReferenceAlgorithm)
{
    // The production analysis (one-pass adjacency + in-degree
    // countdown) against the original two-walk algorithm. Both
    // production paths (interpreter and plan) share the new code, so
    // only this reference diff would catch a layering regression.
    constexpr int kGenomes = 400;
    for (int i = 0; i < kGenomes; ++i) {
        XorWow rng(deriveSeed(kFuzzBase ^ 0x5151, static_cast<uint64_t>(i)));
        const bool allow_cycles = i % 3 == 2;
        const NeatConfig cfg = oracle::planFuzzConfig(rng, !allow_cycles);
        const Genome g = fuzzGenome(cfg, rng, allow_cycles);
        SCOPED_TRACE("analysis genome " + std::to_string(i));

        const GenomeAnalysis a = analyzeGenome(g, cfg);
        EXPECT_EQ(a.required, referenceRequired(g, cfg));
        EXPECT_EQ(a.layers, referenceLayers(g, cfg));
    }
}

// --- targeted plan semantics -------------------------------------------------

namespace
{

/** The hand genome from test_feedforward: 2 inputs, hidden 1, out 0. */
Genome
handGenome()
{
    Genome g(0);
    NodeGene out;
    out.key = 0;
    out.activation = Activation::Identity;
    NodeGene hid = out;
    hid.key = 1;
    g.mutableNodes().emplace(0, out);
    g.mutableNodes().emplace(1, hid);
    auto conn = [&g](int a, int b, double w) {
        ConnectionGene c;
        c.key = {a, b};
        c.weight = w;
        g.mutableConnections().emplace(c.key, c);
    };
    conn(-1, 1, 2.0);
    conn(-2, 1, 3.0);
    conn(1, 0, 0.5);
    conn(-2, 0, -1.0);
    return g;
}

} // namespace

TEST(CompiledPlan, EvaluatesHandGenomeExactly)
{
    NeatConfig cfg;
    cfg.numInputs = 2;
    cfg.numOutputs = 1;
    const auto plan = CompiledPlan::compileFor(handGenome(), cfg);
    PlanScratch s;
    const std::vector<double> in{1.0, 2.0};
    plan.activate(in, s);
    const auto &out = s.outputs;
    ASSERT_EQ(out.size(), 1u);
    EXPECT_DOUBLE_EQ(out[0], 0.5 * (2.0 + 6.0) - 2.0);
    EXPECT_EQ(plan.macsPerInference(), 4);
    EXPECT_EQ(plan.numNodes(), 2);
    EXPECT_EQ(plan.numSlots(), 4);
    ASSERT_EQ(plan.layerSpans().size(), 2u);
    EXPECT_EQ(plan.layerSpans()[0].begin, 0);
    EXPECT_EQ(plan.layerSpans()[0].end, 1);
    EXPECT_EQ(plan.layerSpans()[1].begin, 1);
    EXPECT_EQ(plan.layerSpans()[1].end, 2);
}

TEST(CompiledPlan, ScratchIsReusableAcrossPlans)
{
    // One scratch driven through two differently-sized plans must
    // produce the same outputs as fresh scratches: buffers are
    // resized on entry and no stale state leaks between plans.
    NeatConfig small;
    small.numInputs = 2;
    small.numOutputs = 1;
    const auto plan_small = CompiledPlan::compileFor(handGenome(), small);

    XorWow rng(deriveSeed(kFuzzBase, 77));
    const NeatConfig big = oracle::planFuzzConfig(rng, true);
    const Genome g = fuzzGenome(big, rng, false);
    const auto plan_big = CompiledPlan::compileFor(g, big);

    PlanScratch shared;
    std::vector<double> big_in(static_cast<size_t>(big.numInputs), 0.25);
    plan_big.activate(big_in, shared);
    PlanScratch fresh_big;
    plan_big.activate(big_in, fresh_big);
    const std::vector<double> small_in{1.0, 2.0};
    plan_small.activate(small_in, shared);
    const auto small_out = shared.outputs;
    plan_big.activate(big_in, shared);

    PlanScratch fresh_small;
    plan_small.activate(small_in, fresh_small);
    EXPECT_EQ(small_out, fresh_small.outputs);
    EXPECT_EQ(shared.outputs, fresh_big.outputs);
}

TEST(CompiledPlan, CompileScratchReuseIsBitIdentical)
{
    // One CompileScratch driven through many differently-shaped
    // genomes and both lowerings must produce plans identical to
    // fresh-scratch compiles: stale buffer contents never leak into a
    // later plan. This is the per-thread reuse pattern the plan cache
    // runs in production.
    constexpr int kGenomes = 200;
    CompileScratch shared;
    for (int i = 0; i < kGenomes; ++i) {
        XorWow rng(deriveSeed(kFuzzBase ^ 0xC0DE, static_cast<uint64_t>(i)));
        const bool allow_cycles = i % 4 == 3;
        const NeatConfig cfg = oracle::planFuzzConfig(rng, !allow_cycles);
        const Genome g = fuzzGenome(cfg, rng, allow_cycles);
        SCOPED_TRACE("scratch genome " + std::to_string(i));

        for (const bool feed_forward : {true, false}) {
            NeatConfig mode = cfg;
            mode.feedForward = feed_forward;
            const auto fresh = CompiledPlan::compileFor(g, mode);
            const auto reused = CompiledPlan::compileFor(g, mode, shared);

            ASSERT_EQ(reused.isRecurrent(), !feed_forward);
            ASSERT_EQ(reused.numSlots(), fresh.numSlots());
            ASSERT_EQ(reused.numNodes(), fresh.numNodes());
            EXPECT_EQ(reused.macsPerInference(), fresh.macsPerInference());
            ASSERT_EQ(reused.layerSpans().size(),
                      fresh.layerSpans().size());

            PlanScratch sa, sb;
            fresh.reset(sa);
            reused.reset(sb);
            for (int t = 0; t < 3; ++t) {
                std::vector<double> in(static_cast<size_t>(cfg.numInputs));
                for (auto &x : in)
                    x = rng.uniform(-5.0, 5.0);
                fresh.activate(in, sa);
                reused.activate(in, sb);
                ASSERT_EQ(sb.outputs.size(), sa.outputs.size());
                for (size_t o = 0; o < sa.outputs.size(); ++o)
                    EXPECT_TRUE(bitEqual(sb.outputs[o], sa.outputs[o]))
                        << (feed_forward ? "feed-forward" : "recurrent")
                        << " output " << o << " trial " << t;
            }
        }
    }
}

TEST(CompiledPlan, WrongInputCountThrows)
{
    NeatConfig cfg;
    cfg.numInputs = 2;
    cfg.numOutputs = 1;
    const auto plan = CompiledPlan::compileFor(handGenome(), cfg);
    PlanScratch scratch;
    const std::vector<double> too_few{1.0};
    EXPECT_ANY_THROW(plan.activate(too_few, scratch));
}

TEST(CompiledPlan, UnreachableOutputReadsZero)
{
    NeatConfig cfg;
    cfg.numInputs = 1;
    cfg.numOutputs = 2;
    Genome g(0);
    NodeGene o0;
    o0.key = 0;
    o0.activation = Activation::Identity;
    NodeGene o1 = o0;
    o1.key = 1;
    g.mutableNodes().emplace(0, o0);
    g.mutableNodes().emplace(1, o1);
    ConnectionGene c;
    c.key = {-1, 0};
    c.weight = 1.0;
    g.mutableConnections().emplace(c.key, c);

    const auto plan = CompiledPlan::compileFor(g, cfg);
    PlanScratch s;
    const std::vector<double> in{3.0};
    plan.activate(in, s);
    const auto &out = s.outputs;
    EXPECT_DOUBLE_EQ(out[0], 3.0);
    EXPECT_DOUBLE_EQ(out[1], 0.0);
}
