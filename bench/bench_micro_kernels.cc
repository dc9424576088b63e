/**
 * @file
 * Microbenchmarks (google-benchmark) for the hot kernels of the
 * library: genome crossover/mutation, network evaluation,
 * levelization, stream alignment and the functional EvE PE.
 */

#include <benchmark/benchmark.h>

#include <bit>

#include "common/logging.hh"
#include "core/workloads.hh"
#include "env/runner.hh"
#include "exec/eval_engine.hh"
#include "hw/eve_pe.hh"
#include "hw/gene_split.hh"
#include "nn/compiled_plan.hh"
#include "nn/hw_activations.hh"
#include "nn/levelize.hh"
#include "nn/recurrent.hh"
#include "obs/telemetry.hh"

using namespace genesys;
using namespace genesys::neat;

namespace
{

NeatConfig
benchConfig(int inputs, int outputs)
{
    NeatConfig cfg;
    cfg.numInputs = inputs;
    cfg.numOutputs = outputs;
    return cfg;
}

Genome
grownGenome(const NeatConfig &cfg, int mutations, uint64_t seed)
{
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(seed);
    auto g = Genome::createNew(0, cfg, idx, rng);
    for (int i = 0; i < mutations; ++i)
        g.mutate(cfg, idx, rng);
    return g;
}

/**
 * Dense genome with exactly `hidden` hidden nodes in one layer
 * (inputs -> hidden -> outputs, fully connected), random weights.
 * The interpreter-vs-compiled comparison runs on this shape so the
 * "64-hidden-node genome" speedup claim is pinned to a known
 * topology rather than whatever mutation happened to grow.
 */
Genome
denseGenome(const NeatConfig &cfg, int hidden, uint64_t seed)
{
    XorWow rng(seed);
    Genome g(0);
    for (int o = 0; o < cfg.numOutputs; ++o) {
        NodeGene n;
        n.key = o;
        n.bias = rng.gaussian();
        g.mutableNodes().emplace(o, n);
    }
    for (int h = 0; h < hidden; ++h) {
        const int key = cfg.numOutputs + h;
        NodeGene n;
        n.key = key;
        n.bias = rng.gaussian();
        g.mutableNodes().emplace(key, n);
        for (int i = 0; i < cfg.numInputs; ++i) {
            ConnectionGene c;
            c.key = {-i - 1, key};
            c.weight = rng.gaussian();
            g.mutableConnections().emplace(c.key, c);
        }
        for (int o = 0; o < cfg.numOutputs; ++o) {
            ConnectionGene c;
            c.key = {key, o};
            c.weight = rng.gaussian();
            g.mutableConnections().emplace(c.key, c);
        }
    }
    return g;
}

/**
 * Bit-for-bit output equality between the interpreter and the
 * compiled plan — the differential contract, re-checked in the bench
 * binary itself so the speedup numbers are only ever printed for
 * matching paths.
 */
void
assertPathsMatch(const nn::FeedForwardNetwork &net,
                 const nn::CompiledPlan &plan, const NeatConfig &cfg,
                 uint64_t seed)
{
    XorWow rng(seed);
    nn::PlanScratch scratch;
    for (int t = 0; t < 16; ++t) {
        std::vector<double> in(static_cast<size_t>(cfg.numInputs));
        for (auto &x : in)
            x = rng.uniform(-3.0, 3.0);
        const auto expect = net.activate(in);
        plan.activate(in, scratch);
        GENESYS_ASSERT(scratch.outputs.size() == expect.size(),
                       "output count mismatch");
        for (size_t o = 0; o < expect.size(); ++o) {
            GENESYS_ASSERT(
                std::bit_cast<uint64_t>(scratch.outputs[o]) ==
                    std::bit_cast<uint64_t>(expect[o]),
                "interpreter/compiled outputs diverge at output "
                    << o << ": " << expect[o] << " vs "
                    << scratch.outputs[o]);
        }
    }
}

} // namespace

static void
BM_GenomeCrossover(benchmark::State &state)
{
    const auto cfg = benchConfig(static_cast<int>(state.range(0)), 4);
    const auto p1 = grownGenome(cfg, 10, 1);
    const auto p2 = grownGenome(cfg, 10, 2);
    XorWow rng(3);
    for (auto _ : state) {
        auto child = Genome::crossover(9, p1, p2, rng);
        benchmark::DoNotOptimize(child);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(p1.numGenes()));
}
BENCHMARK(BM_GenomeCrossover)->Arg(4)->Arg(24)->Arg(128);

static void
BM_GenomeMutate(benchmark::State &state)
{
    auto cfg = benchConfig(static_cast<int>(state.range(0)), 4);
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(4);
    auto g = grownGenome(cfg, 5, 5);
    for (auto _ : state) {
        auto copy = g;
        benchmark::DoNotOptimize(copy.mutate(cfg, idx, rng));
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(g.numGenes()));
}
BENCHMARK(BM_GenomeMutate)->Arg(4)->Arg(128);

static void
BM_GenomeDistance(benchmark::State &state)
{
    const auto cfg = benchConfig(static_cast<int>(state.range(0)), 4);
    const auto a = grownGenome(cfg, 10, 6);
    const auto b = grownGenome(cfg, 10, 7);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.distance(b, cfg));
}
BENCHMARK(BM_GenomeDistance)->Arg(4)->Arg(128);

static void
BM_NetworkActivate(benchmark::State &state)
{
    const auto cfg = benchConfig(static_cast<int>(state.range(0)), 4);
    const auto g = grownGenome(cfg, 20, 8);
    const auto net = nn::FeedForwardNetwork::create(g, cfg);
    std::vector<double> inputs(net.numInputs(), 0.5);
    for (auto _ : state)
        benchmark::DoNotOptimize(net.activate(inputs));
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        net.macsPerInference());
}
BENCHMARK(BM_NetworkActivate)->Arg(4)->Arg(24)->Arg(128);

// --- interpreter vs compiled plan -------------------------------------------
// All comparisons run on the same 64-hidden-node dense genome
// (8 inputs, 4 outputs, 768 connections) and assert bit-identical
// outputs before timing anything.
//
// Two views, both printing steps/s as items_per_second:
//
//  * BM_ActivateStep*: one warm forward pass. Both paths pay the same
//    irreducible math (libm exp per sigmoid node, per-node ordered
//    accumulation — fixed by the bit-identity contract), so this
//    isolates interpreter overhead only.
//
//  * BM_EvalPath*: what a genome actually costs per generation in the
//    engine — the per-genome phenotype work plus `steps` forward
//    passes. The interpreter path is the seed hot path:
//    FeedForwardNetwork::create per evaluation (env/runner.cc) plus
//    the separate nn::levelize the System ran per genome for the
//    hardware model (core/genesys.cc). The compiled path is one
//    CompiledPlan::compile, cached per generation, whose schedule()
//    replaces the levelize call outright. The Arg is the episode
//    length; CartPole episodes run ~10-60 steps for most of a run
//    (the 200-step cap is only reached by solved policies).

constexpr int kCmpInputs = 8;
constexpr int kCmpHidden = 64;
constexpr int kCmpOutputs = 4;
constexpr uint64_t kCmpSeed = 42;

static void
BM_ActivateStepInterpreter64Hidden(benchmark::State &state)
{
    const auto cfg = benchConfig(kCmpInputs, kCmpOutputs);
    const auto g = denseGenome(cfg, kCmpHidden, kCmpSeed);
    const auto net = nn::FeedForwardNetwork::create(g, cfg);
    const auto plan = nn::CompiledPlan::compile(g, cfg);
    assertPathsMatch(net, plan, cfg, kCmpSeed + 1);

    std::vector<double> inputs(net.numInputs(), 0.5);
    for (auto _ : state)
        benchmark::DoNotOptimize(net.activate(inputs));
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations())); // steps/s
    state.counters["macs_per_step"] =
        static_cast<double>(net.macsPerInference());
}
BENCHMARK(BM_ActivateStepInterpreter64Hidden);

static void
BM_ActivateStepCompiled64Hidden(benchmark::State &state)
{
    const auto cfg = benchConfig(kCmpInputs, kCmpOutputs);
    const auto g = denseGenome(cfg, kCmpHidden, kCmpSeed);
    const auto net = nn::FeedForwardNetwork::create(g, cfg);
    const auto plan = nn::CompiledPlan::compile(g, cfg);
    assertPathsMatch(net, plan, cfg, kCmpSeed + 1);

    std::vector<double> inputs(plan.numInputs(), 0.5);
    nn::PlanScratch scratch;
    for (auto _ : state) {
        plan.activate(inputs, scratch);
        benchmark::DoNotOptimize(scratch.outputs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations())); // steps/s
    state.counters["macs_per_step"] =
        static_cast<double>(plan.macsPerInference());
}
BENCHMARK(BM_ActivateStepCompiled64Hidden);

static void
BM_EvalPathInterpreter64Hidden(benchmark::State &state)
{
    const auto cfg = benchConfig(kCmpInputs, kCmpOutputs);
    const auto g = denseGenome(cfg, kCmpHidden, kCmpSeed);
    {
        const auto net = nn::FeedForwardNetwork::create(g, cfg);
        const auto plan = nn::CompiledPlan::compile(g, cfg);
        assertPathsMatch(net, plan, cfg, kCmpSeed + 1);
    }
    const auto steps = static_cast<int>(state.range(0));
    std::vector<double> inputs(static_cast<size_t>(kCmpInputs), 0.5);
    for (auto _ : state) {
        // The seed per-genome work: rebuild the phenotype, levelize
        // separately for the hardware model, then run the episode.
        const auto net = nn::FeedForwardNetwork::create(g, cfg);
        const auto sched = nn::levelize(g, cfg);
        benchmark::DoNotOptimize(sched.totalMacs());
        for (int s = 0; s < steps; ++s)
            benchmark::DoNotOptimize(net.activate(inputs));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            steps); // steps/s
}
BENCHMARK(BM_EvalPathInterpreter64Hidden)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

static void
BM_EvalPathCompiled64Hidden(benchmark::State &state)
{
    const auto cfg = benchConfig(kCmpInputs, kCmpOutputs);
    const auto g = denseGenome(cfg, kCmpHidden, kCmpSeed);
    {
        const auto net = nn::FeedForwardNetwork::create(g, cfg);
        const auto plan = nn::CompiledPlan::compile(g, cfg);
        assertPathsMatch(net, plan, cfg, kCmpSeed + 1);
    }
    const auto steps = static_cast<int>(state.range(0));
    std::vector<double> inputs(static_cast<size_t>(kCmpInputs), 0.5);
    nn::PlanScratch scratch;
    for (auto _ : state) {
        // The compiled per-genome work: one compile (the plan cache
        // guarantees it runs once per generation); schedule() is a
        // field read, not a second graph walk.
        const auto plan = nn::CompiledPlan::compile(g, cfg);
        benchmark::DoNotOptimize(plan.schedule().totalMacs());
        for (int s = 0; s < steps; ++s) {
            plan.activate(inputs, scratch);
            benchmark::DoNotOptimize(scratch.outputs.data());
        }
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            steps); // steps/s
}
BENCHMARK(BM_EvalPathCompiled64Hidden)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

// --- batched episode lanes ---------------------------------------------------
// The per-genome episode-batching axis: one shared plan, kLanes
// concurrent episode lanes, the per-edge accumulation loop running
// contiguously across lanes (CompiledPlan::activateBatch). Serial and
// batched variants both retire kLanes * steps forward passes per
// iteration (plus the one per-generation compile), so items_per_second
// compares directly: batched / serial = the episode-batching speedup
// the engine realizes per genome.

constexpr int kCmpLanes = 8;

namespace
{

/** Batched lanes must match serial activations before any timing. */
void
assertBatchMatchesSerial(const nn::CompiledPlan &plan,
                         const NeatConfig &cfg, uint64_t seed)
{
    XorWow rng(seed);
    nn::PlanScratch serial;
    nn::BatchScratch batch;
    plan.beginBatch(kCmpLanes, batch);
    std::vector<uint8_t> active(kCmpLanes, 1);
    for (int t = 0; t < 4; ++t) {
        std::vector<std::vector<double>> lane_in(kCmpLanes);
        for (int l = 0; l < kCmpLanes; ++l) {
            lane_in[static_cast<size_t>(l)].resize(
                static_cast<size_t>(cfg.numInputs));
            for (auto &x : lane_in[static_cast<size_t>(l)])
                x = rng.uniform(-3.0, 3.0);
            for (int i = 0; i < cfg.numInputs; ++i)
                batch.inputs[static_cast<size_t>(i) * kCmpLanes +
                             static_cast<size_t>(l)] =
                    lane_in[static_cast<size_t>(l)][static_cast<size_t>(i)];
        }
        plan.activateBatch(kCmpLanes, active.data(), batch);
        for (int l = 0; l < kCmpLanes; ++l) {
            plan.activate(lane_in[static_cast<size_t>(l)], serial);
            for (size_t o = 0; o < serial.outputs.size(); ++o) {
                GENESYS_ASSERT(
                    std::bit_cast<uint64_t>(
                        batch.outputs[o * kCmpLanes +
                                      static_cast<size_t>(l)]) ==
                        std::bit_cast<uint64_t>(serial.outputs[o]),
                    "batched/serial outputs diverge at lane "
                        << l << " output " << o);
            }
        }
    }
}

} // namespace

namespace
{

/** Serial baseline: compile once, run kCmpLanes episodes one at a time. */
void
evalPathSerialEpisodes(benchmark::State &state, const NeatConfig &cfg,
                       const Genome &g)
{
    {
        const auto plan = nn::CompiledPlan::compile(g, cfg);
        assertBatchMatchesSerial(plan, cfg, kCmpSeed + 2);
    }
    const auto steps = static_cast<int>(state.range(0));
    std::vector<double> inputs(static_cast<size_t>(cfg.numInputs), 0.5);
    nn::PlanScratch scratch;
    nn::CompileScratch compile_scratch;
    for (auto _ : state) {
        // kCmpLanes episodes, one at a time — the engine's episode
        // loop before batching.
        const auto plan =
            nn::CompiledPlan::compile(g, cfg, compile_scratch);
        for (int e = 0; e < kCmpLanes; ++e) {
            for (int s = 0; s < steps; ++s) {
                plan.activate(inputs, scratch);
                benchmark::DoNotOptimize(scratch.outputs.data());
            }
        }
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            steps * kCmpLanes); // steps/s
}

/** Batched path: the same kCmpLanes episodes in BSP lockstep. */
void
evalPathBatchedEpisodes(benchmark::State &state, const NeatConfig &cfg,
                        const Genome &g)
{
    {
        const auto plan = nn::CompiledPlan::compile(g, cfg);
        assertBatchMatchesSerial(plan, cfg, kCmpSeed + 2);
    }
    const auto steps = static_cast<int>(state.range(0));
    nn::BatchScratch scratch;
    nn::CompileScratch compile_scratch;
    std::vector<uint8_t> active(kCmpLanes, 1);
    for (auto _ : state) {
        const auto plan =
            nn::CompiledPlan::compile(g, cfg, compile_scratch);
        plan.beginBatch(kCmpLanes, scratch);
        std::fill(scratch.inputs.begin(), scratch.inputs.end(), 0.5);
        for (int s = 0; s < steps; ++s) {
            plan.activateBatch(kCmpLanes, active.data(), scratch);
            benchmark::DoNotOptimize(scratch.outputs.data());
        }
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            steps * kCmpLanes); // steps/s
}

} // namespace

static void
BM_EvalPathSerialEpisodes64Hidden(benchmark::State &state)
{
    const auto cfg = benchConfig(kCmpInputs, kCmpOutputs);
    evalPathSerialEpisodes(state, cfg,
                           denseGenome(cfg, kCmpHidden, kCmpSeed));
}
BENCHMARK(BM_EvalPathSerialEpisodes64Hidden)->Arg(25)->Arg(50)->Arg(100);

static void
BM_EvalPathBatchedEpisodes64Hidden(benchmark::State &state)
{
    const auto cfg = benchConfig(kCmpInputs, kCmpOutputs);
    evalPathBatchedEpisodes(state, cfg,
                            denseGenome(cfg, kCmpHidden, kCmpSeed));
}
BENCHMARK(BM_EvalPathBatchedEpisodes64Hidden)->Arg(25)->Arg(50)->Arg(100);

// Atari-RAM scale: Table I's RAM environments observe 128 bytes, so
// their policies carry 128 inputs — there the per-step cost is
// accumulate-bound (8.4k edges vs 68 libm calls on this shape) and
// episode batching pays off hardest. The 8-input CartPole-scale pair
// above bounds the other end, where per-lane libm activation calls
// (fixed by the bit-identity contract) cap the gain.

constexpr int kAtariInputs = 128;
constexpr int kAtariOutputs = 6;

static void
BM_EvalPathSerialEpisodesAtariScale(benchmark::State &state)
{
    const auto cfg = benchConfig(kAtariInputs, kAtariOutputs);
    evalPathSerialEpisodes(state, cfg,
                           denseGenome(cfg, kCmpHidden, kCmpSeed));
}
BENCHMARK(BM_EvalPathSerialEpisodesAtariScale)->Arg(25)->Arg(50)->Arg(100);

static void
BM_EvalPathBatchedEpisodesAtariScale(benchmark::State &state)
{
    const auto cfg = benchConfig(kAtariInputs, kAtariOutputs);
    evalPathBatchedEpisodes(state, cfg,
                            denseGenome(cfg, kCmpHidden, kCmpSeed));
}
BENCHMARK(BM_EvalPathBatchedEpisodesAtariScale)->Arg(25)->Arg(50)->Arg(100);

// --- numerics tiers: float reference vs hw-faithful fixed point --------------
// The perf claim of the HwFaithful tier (nn/numerics.hh): replacing
// the per-lane libm activation calls with branch-free polynomial
// kernels + Limit & Quantize lets the batched activation step
// vectorize across episode lanes. The pair below runs the SAME
// batched eval path (one compile + steps x kCmpLanes lockstep
// passes) under each tier on the 8-input 64-hidden dense genome —
// the activation-bound end of the spectrum, where the reference
// tier's masked libm loop is the floor. Before timing, the harness
// asserts the hw tier's contract: batched output bits == serial
// output bits within the tier, and hw-vs-float output divergence
// inside the documented approximation bound.

namespace
{

/** Max |hw - float| per output on this genome/input span; generous
 *  against the per-node budget (~6e-3 approx + 2^-10 quantize per
 *  node, two layers) — tightened end-to-end by the divergence suite
 *  (tests/test_numerics_divergence.cc). */
constexpr double kTierDivergenceBound = 0.08;

/** Assert hw serial==batch bit-identity and hw-vs-float proximity. */
void
assertHwTierConsistent(const NeatConfig &cfg, const Genome &g,
                       uint64_t seed)
{
    const auto ref = nn::CompiledPlan::compile(g, cfg);
    const auto hw = nn::CompiledPlan::compile(
        g, cfg, nn::NumericsTier::HwFaithful);
    XorWow rng(seed);
    nn::PlanScratch ref_s, hw_s;
    nn::BatchScratch batch;
    hw.beginBatch(kCmpLanes, batch);
    std::vector<uint8_t> active(kCmpLanes, 1);
    for (int t = 0; t < 4; ++t) {
        std::vector<std::vector<double>> lane_in(kCmpLanes);
        for (int l = 0; l < kCmpLanes; ++l) {
            lane_in[static_cast<size_t>(l)].resize(
                static_cast<size_t>(cfg.numInputs));
            for (auto &x : lane_in[static_cast<size_t>(l)])
                x = rng.uniform(-3.0, 3.0);
            for (int i = 0; i < cfg.numInputs; ++i)
                batch.inputs[static_cast<size_t>(i) * kCmpLanes +
                             static_cast<size_t>(l)] =
                    lane_in[static_cast<size_t>(l)]
                           [static_cast<size_t>(i)];
        }
        hw.activateBatch(kCmpLanes, active.data(), batch);
        for (int l = 0; l < kCmpLanes; ++l) {
            hw.activate(lane_in[static_cast<size_t>(l)], hw_s);
            ref.activate(lane_in[static_cast<size_t>(l)], ref_s);
            for (size_t o = 0; o < hw_s.outputs.size(); ++o) {
                GENESYS_ASSERT(
                    std::bit_cast<uint64_t>(
                        batch.outputs[o * kCmpLanes +
                                      static_cast<size_t>(l)]) ==
                        std::bit_cast<uint64_t>(hw_s.outputs[o]),
                    "hw tier batched/serial outputs diverge at lane "
                        << l << " output " << o);
                const double dv =
                    hw_s.outputs[o] - ref_s.outputs[o];
                GENESYS_ASSERT(
                    (dv < 0 ? -dv : dv) <= kTierDivergenceBound,
                    "hw tier diverges from float beyond bound at "
                        << "output " << o << ": " << hw_s.outputs[o]
                        << " vs " << ref_s.outputs[o]);
            }
        }
    }
}

/** The batched eval path under one tier (shared by the pair below). */
void
evalPathTiered(benchmark::State &state, nn::NumericsTier tier)
{
    const auto cfg = benchConfig(kCmpInputs, kCmpOutputs);
    const auto g = denseGenome(cfg, kCmpHidden, kCmpSeed);
    assertHwTierConsistent(cfg, g, kCmpSeed + 3);
    const auto steps = static_cast<int>(state.range(0));
    nn::BatchScratch scratch;
    std::vector<uint8_t> active(kCmpLanes, 1);
    // Compile once, outside the timing loop: in the engine the
    // PlanCache compiles each genome once per generation while the
    // eval path runs episodesPerEval x ~hundreds of env steps against
    // that plan, so the steady-state step cost is the number the tier
    // comparison is about (BM_EvalPathCompiled* above covers the
    // compile+run combination).
    const auto plan = nn::CompiledPlan::compile(g, cfg, tier);
    plan.beginBatch(kCmpLanes, scratch);
    for (auto _ : state) {
        std::fill(scratch.inputs.begin(), scratch.inputs.end(), 0.5);
        for (int s = 0; s < steps; ++s) {
            plan.activateBatch(kCmpLanes, active.data(), scratch);
            benchmark::DoNotOptimize(scratch.outputs.data());
        }
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            steps * kCmpLanes); // steps/s
}

} // namespace

static void
BM_EvalPathFloat64Hidden(benchmark::State &state)
{
    evalPathTiered(state, nn::NumericsTier::Reference);
}
BENCHMARK(BM_EvalPathFloat64Hidden)->Arg(25)->Arg(50)->Arg(100);

static void
BM_EvalPathHwFaithful64Hidden(benchmark::State &state)
{
    evalPathTiered(state, nn::NumericsTier::HwFaithful);
}
BENCHMARK(BM_EvalPathHwFaithful64Hidden)->Arg(25)->Arg(50)->Arg(100);

// The activation step in isolation — the libm-floor claim as a
// measured artifact. Arg(0) times the reference step: a per-lane
// loop of scalar libm sigmoid calls (neat::activate), which GCC
// cannot vectorize across lanes because of the libm call. Arg(1)
// times the hw tier's lane kernel: branch-free rational sigmoid +
// Limit & Quantize across the whole lane vector. Two gates run
// before timing: the hw lane kernel must match the hw scalar
// dispatch bit for bit (the shared-functor contract), and hw-vs-libm
// divergence must stay inside the documented per-activation bound.

static void
BM_ActivationScalarVsVectorized(benchmark::State &state)
{
    constexpr int kLanes = 8;
    // Per-activation approximation bound for the sigmoid functor
    // (tanhCore error ~2.4e-2 halved, plus Q6.10 rounding).
    constexpr double kActDivergenceBound = 1.3e-2;
    constexpr auto q = nn::hwact::hwQuantizer();
    const bool vectorized = state.range(0) != 0;
    alignas(64) double acc[kLanes];
    alignas(64) double dst_s[kLanes];
    alignas(64) double dst_v[kLanes];
    uint8_t active[kLanes];
    XorWow rng(kCmpSeed + 4);
    for (int l = 0; l < kLanes; ++l) {
        acc[l] = rng.uniform(-3.0, 3.0);
        active[l] = 1;
        dst_s[l] = dst_v[l] = 0.0;
    }
    // Gate 1: the vectorized hw kernel must reproduce the scalar hw
    // dispatch bit for bit on every lane. Gate 2: the hw
    // approximation must stay within the documented bound of the
    // libm reference it replaces.
    nn::hwact::activateLanesQuantized<kLanes>(
        neat::Activation::Sigmoid, 0.3, 0.9, acc, active, true, dst_v,
        kLanes, q);
    for (int l = 0; l < kLanes; ++l) {
        const double x = 0.3 + 0.9 * acc[l];
        GENESYS_ASSERT(
            std::bit_cast<uint64_t>(nn::hwact::activateQuantized(
                neat::Activation::Sigmoid, x, q)) ==
                std::bit_cast<uint64_t>(dst_v[l]),
            "scalar/vectorized hw activation diverges at lane " << l);
        GENESYS_ASSERT(
            std::fabs(dst_v[l] -
                      neat::activate(neat::Activation::Sigmoid, x)) <=
                kActDivergenceBound,
            "hw sigmoid drifted past the documented bound at lane "
                << l);
    }

    for (auto _ : state) {
        if (vectorized) {
            nn::hwact::activateLanesQuantized<kLanes>(
                neat::Activation::Sigmoid, 0.3, 0.9, acc, active,
                true, dst_v, kLanes, q);
            benchmark::DoNotOptimize(dst_v);
        } else {
            for (int l = 0; l < kLanes; ++l)
                dst_s[l] = neat::activate(neat::Activation::Sigmoid,
                                          0.3 + 0.9 * acc[l]);
            benchmark::DoNotOptimize(dst_s);
        }
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            kLanes); // lane activations/s
    state.SetLabel(vectorized ? "vectorized-hw" : "scalar-libm");
}
BENCHMARK(BM_ActivationScalarVsVectorized)->Arg(0)->Arg(1);

// --- heterogeneous wave scheduler --------------------------------------------
// The episodesPerEval == 1 regime: one episode each of kWaveGenomes
// *different* genomes packed onto one kWaveLanes-wide shard by the
// cross-genome wave scheduler (env::evaluateWave). Before anything is
// timed, every wave episode is asserted bit-identical to the serial
// one-episode loop and the measured lane occupancy is asserted
// >= 0.9.

constexpr int kWaveGenomes = 64;
constexpr int kWaveLanes = 8;

namespace
{

/**
 * Deterministic fixed-length environment: episode length is derived
 * from the reset seed (uniform in [40, 120]), observations are a
 * seeded pseudo-random stream, rewards are 1 per step. Gives the
 * wave scheduler realistic episode-length variance and refill
 * pressure with negligible dynamics cost, so the benchmark times
 * inference + scheduling, not gym physics.
 */
class FixedLengthEnv final : public env::Environment
{
  public:
    explicit FixedLengthEnv(int inputs) : inputs_(inputs) {}

    const std::string &
    name() const override
    {
        static const std::string n = "FixedLength";
        return n;
    }
    int observationSize() const override { return inputs_; }
    env::ActionSpace
    actionSpace() const override
    {
        env::ActionSpace space;
        space.kind = env::ActionSpace::Kind::Discrete;
        space.n = kCmpOutputs;
        return space;
    }
    int recommendedOutputs() const override { return kCmpOutputs; }
    int maxSteps() const override { return 120; }
    double targetFitness() const override { return 1e18; }

    std::vector<double>
    reset(uint64_t seed) override
    {
        resetBookkeeping();
        rng_ = XorWow(seed ^ 0xF17Eull);
        length_ = 40 + static_cast<int>(seed % 81);
        return observe();
    }

    env::StepResult
    step(const env::Action &) override
    {
        accumulate(1.0);
        env::StepResult sr;
        sr.reward = 1.0;
        sr.done = stepsTaken_ >= length_;
        sr.observation = observe();
        return sr;
    }

  private:
    std::vector<double>
    observe()
    {
        std::vector<double> obs(static_cast<size_t>(inputs_));
        for (auto &x : obs)
            x = rng_.uniform(-1.0, 1.0);
        return obs;
    }

    int inputs_;
    int length_ = 40;
    XorWow rng_{1};
};

/** The wave workload: kWaveGenomes distinct plans, one episode each. */
struct WaveWorkload
{
    NeatConfig cfg;
    std::vector<Genome> genomes;
    std::vector<nn::CompiledPlan> plans;
    std::vector<uint64_t> seeds;

    explicit WaveWorkload(int inputs)
        : cfg(benchConfig(inputs, kCmpOutputs))
    {
        genomes.reserve(kWaveGenomes);
        plans.reserve(kWaveGenomes);
        seeds.reserve(kWaveGenomes);
        for (int i = 0; i < kWaveGenomes; ++i) {
            genomes.push_back(denseGenome(
                cfg, kCmpHidden, kCmpSeed + static_cast<uint64_t>(i)));
            plans.push_back(
                nn::CompiledPlan::compile(genomes.back(), cfg));
            seeds.push_back(1000 + 37 * static_cast<uint64_t>(i));
        }
    }

    std::vector<env::WaveItem>
    items() const
    {
        std::vector<env::WaveItem> out;
        out.reserve(plans.size());
        for (size_t i = 0; i < plans.size(); ++i)
            out.push_back({&plans[i], seeds[i]});
        return out;
    }
};

std::vector<env::Environment *>
waveLanes(std::vector<std::unique_ptr<env::Environment>> &owned,
          int inputs, int width)
{
    std::vector<env::Environment *> lanes;
    for (int l = 0; l < width; ++l) {
        owned.push_back(std::make_unique<FixedLengthEnv>(inputs));
        lanes.push_back(owned.back().get());
    }
    return lanes;
}

/**
 * The wave contract, checked before timing: every wave episode
 * bit-identical to the serial loop, and measured lane occupancy at
 * least 0.9 — the acceptance bar for the cross-genome scheduler at
 * episodesPerEval == 1. Returns the measured total environment steps
 * across the workload, so items_per_second counts env-steps without
 * re-deriving the episode lengths.
 */
long
assertWaveMatchesSerial(const WaveWorkload &w)
{
    std::vector<std::unique_ptr<env::Environment>> owned;
    const auto lanes = waveLanes(owned, w.cfg.numInputs, kWaveLanes);
    env::WaveScratch scratch;
    const auto wave = env::evaluateWave(w.items(), lanes, scratch);

    FixedLengthEnv serial_env(w.cfg.numInputs);
    nn::PlanScratch pscratch;
    for (size_t i = 0; i < w.plans.size(); ++i) {
        env::EpisodeRunner runner(serial_env, w.seeds[i], 1);
        const auto expect =
            runner.runEpisode(w.plans[i], pscratch, w.seeds[i]);
        const auto &got = wave.episodes[i];
        GENESYS_ASSERT(
            std::bit_cast<uint64_t>(got.fitness) ==
                    std::bit_cast<uint64_t>(expect.fitness) &&
                got.steps == expect.steps &&
                got.macs == expect.macs,
            "wave/serial episode diverges at item " << i);
    }
    GENESYS_ASSERT(wave.stats.occupancy() >= 0.9,
                   "heterogeneous wave occupancy "
                       << wave.stats.occupancy()
                       << " below the 0.9 acceptance bar");

    long steps = 0;
    for (const auto &res : wave.episodes)
        steps += res.steps;
    return steps;
}

/** Heterogeneous wave leg: all genomes share the lane shard. */
void
evalPathWaveHeterogeneous(benchmark::State &state,
                          const WaveWorkload &w)
{
    const long total_steps = assertWaveMatchesSerial(w);
    std::vector<std::unique_ptr<env::Environment>> owned;
    const auto lanes = waveLanes(owned, w.cfg.numInputs, kWaveLanes);
    const auto items = w.items();
    env::WaveScratch scratch;
    double occupancy = 0.0;
    for (auto _ : state) {
        const auto wave = env::evaluateWave(items, lanes, scratch);
        occupancy = wave.stats.occupancy();
        benchmark::DoNotOptimize(&wave);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            total_steps); // env-steps/s
    state.counters["lane_occupancy"] = occupancy;
}

} // namespace

static void
BM_EvalPathWaveHeterogeneousAtariScale(benchmark::State &state)
{
    evalPathWaveHeterogeneous(state, WaveWorkload(kAtariInputs));
}
BENCHMARK(BM_EvalPathWaveHeterogeneousAtariScale);

// --- recurrent: interpreter vs compiled plan ---------------------------------
// The 64-hidden dense genome augmented with recurrent structure: a
// self-loop on every fourth hidden node plus an output->hidden back
// edge, evaluated with stateful tick semantics. Equality is asserted
// tick for tick before timing — the recurrent bit-identity contract,
// enforced in the bench binary itself.

namespace
{

Genome
recurrentBenchGenome(const NeatConfig &cfg)
{
    Genome g = denseGenome(cfg, kCmpHidden, kCmpSeed);
    XorWow rng(kCmpSeed ^ 0x5EC5);
    for (int h = 0; h < kCmpHidden; h += 4) {
        ConnectionGene c;
        c.key = {cfg.numOutputs + h, cfg.numOutputs + h};
        c.weight = rng.gaussian() * 0.25;
        g.mutableConnections().emplace(c.key, c);
    }
    ConnectionGene back;
    back.key = {0, cfg.numOutputs}; // output 0 -> first hidden
    back.weight = rng.gaussian() * 0.25;
    g.mutableConnections().emplace(back.key, back);
    return g;
}

void
assertRecurrentPathsMatch(nn::RecurrentNetwork &net,
                          const nn::CompiledPlan &plan,
                          const NeatConfig &cfg, uint64_t seed)
{
    XorWow rng(seed);
    nn::PlanScratch scratch;
    net.reset();
    plan.reset(scratch);
    GENESYS_ASSERT(plan.macsPerInference() == net.macsPerInference(),
                   "recurrent MAC counts diverge: plan "
                       << plan.macsPerInference() << " vs interpreter "
                       << net.macsPerInference());
    for (int t = 0; t < 16; ++t) {
        std::vector<double> in(static_cast<size_t>(cfg.numInputs));
        for (auto &x : in)
            x = rng.uniform(-3.0, 3.0);
        const auto expect = net.activate(in);
        plan.activateRecurrent(in, scratch);
        for (size_t o = 0; o < expect.size(); ++o) {
            GENESYS_ASSERT(std::bit_cast<uint64_t>(scratch.outputs[o]) ==
                               std::bit_cast<uint64_t>(expect[o]),
                           "recurrent interpreter/compiled outputs "
                           "diverge at output "
                               << o << " tick " << t);
        }
    }
}

} // namespace

static void
BM_RecurrentStepInterpreter64Hidden(benchmark::State &state)
{
    auto cfg = benchConfig(kCmpInputs, kCmpOutputs);
    cfg.feedForward = false;
    const auto g = recurrentBenchGenome(cfg);
    auto net = nn::RecurrentNetwork::create(g, cfg);
    const auto plan = nn::CompiledPlan::compileRecurrent(g, cfg);
    assertRecurrentPathsMatch(net, plan, cfg, kCmpSeed + 3);

    std::vector<double> inputs(net.numInputs(), 0.5);
    net.reset();
    for (auto _ : state)
        benchmark::DoNotOptimize(net.activate(inputs));
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations())); // ticks/s
    state.counters["macs_per_step"] =
        static_cast<double>(net.macsPerInference());
}
BENCHMARK(BM_RecurrentStepInterpreter64Hidden);

static void
BM_RecurrentStepCompiled64Hidden(benchmark::State &state)
{
    auto cfg = benchConfig(kCmpInputs, kCmpOutputs);
    cfg.feedForward = false;
    const auto g = recurrentBenchGenome(cfg);
    auto net = nn::RecurrentNetwork::create(g, cfg);
    const auto plan = nn::CompiledPlan::compileRecurrent(g, cfg);
    assertRecurrentPathsMatch(net, plan, cfg, kCmpSeed + 3);

    std::vector<double> inputs(plan.numInputs(), 0.5);
    nn::PlanScratch scratch;
    plan.reset(scratch);
    for (auto _ : state) {
        plan.activateRecurrent(inputs, scratch);
        benchmark::DoNotOptimize(scratch.outputs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations())); // ticks/s
    state.counters["macs_per_step"] =
        static_cast<double>(plan.macsPerInference());
}
BENCHMARK(BM_RecurrentStepCompiled64Hidden);

namespace
{

/**
 * Batched recurrent lanes must match per-lane serial state ticks bit
 * for bit — including the cross-tick prev/curr state each lane
 * carries — before any lanes-variant timing is reported.
 */
void
assertRecurrentBatchMatchesSerial(const nn::CompiledPlan &plan,
                                  const NeatConfig &cfg, uint64_t seed)
{
    constexpr int L = kCmpLanes;
    XorWow rng(seed);
    std::vector<nn::PlanScratch> serial(L);
    for (auto &s : serial)
        plan.reset(s);
    nn::BatchScratch batch;
    plan.beginBatch(L, batch);
    std::vector<uint8_t> active(L, 1);
    for (int t = 0; t < 6; ++t) {
        std::vector<std::vector<double>> lane_in(L);
        for (int l = 0; l < L; ++l) {
            lane_in[static_cast<size_t>(l)].resize(
                static_cast<size_t>(cfg.numInputs));
            for (auto &x : lane_in[static_cast<size_t>(l)])
                x = rng.uniform(-3.0, 3.0);
            for (int i = 0; i < cfg.numInputs; ++i)
                batch.inputs[static_cast<size_t>(i) * L +
                             static_cast<size_t>(l)] =
                    lane_in[static_cast<size_t>(l)]
                           [static_cast<size_t>(i)];
        }
        plan.activateBatch(L, active.data(), batch);
        for (int l = 0; l < L; ++l) {
            plan.activateRecurrent(lane_in[static_cast<size_t>(l)],
                                   serial[static_cast<size_t>(l)]);
            for (size_t o = 0;
                 o < serial[static_cast<size_t>(l)].outputs.size();
                 ++o) {
                GENESYS_ASSERT(
                    std::bit_cast<uint64_t>(
                        batch.outputs[o * L +
                                      static_cast<size_t>(l)]) ==
                        std::bit_cast<uint64_t>(
                            serial[static_cast<size_t>(l)]
                                .outputs[o]),
                    "recurrent batched/serial outputs diverge at lane "
                        << l << " output " << o << " tick " << t);
            }
        }
    }
}

} // namespace

static void
BM_RecurrentStepBatchedLanes64Hidden(benchmark::State &state)
{
    // The lanes variant of the recurrent step: kCmpLanes episodes of
    // one recurrent plan advance one tick per activateBatch, the
    // per-edge accumulation running contiguously across lanes.
    // Reported per lane-tick, so the ratio to
    // BM_RecurrentStepCompiled64Hidden is the recurrent batching win.
    auto cfg = benchConfig(kCmpInputs, kCmpOutputs);
    cfg.feedForward = false;
    const auto g = recurrentBenchGenome(cfg);
    const auto plan = nn::CompiledPlan::compileRecurrent(g, cfg);
    assertRecurrentBatchMatchesSerial(plan, cfg, kCmpSeed + 4);

    nn::BatchScratch scratch;
    plan.beginBatch(kCmpLanes, scratch);
    std::fill(scratch.inputs.begin(), scratch.inputs.end(), 0.5);
    std::vector<uint8_t> active(kCmpLanes, 1);
    for (auto _ : state) {
        plan.activateBatch(kCmpLanes, active.data(), scratch);
        benchmark::DoNotOptimize(scratch.outputs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            kCmpLanes); // lane-ticks/s
    state.counters["macs_per_step"] =
        static_cast<double>(plan.macsPerInference());
}
BENCHMARK(BM_RecurrentStepBatchedLanes64Hidden);

static void
BM_ActivateCompiledGrown(benchmark::State &state)
{
    // The compiled path on the same mutation-grown genomes
    // BM_NetworkActivate runs, for a like-for-like comparison at
    // every size.
    const auto cfg = benchConfig(static_cast<int>(state.range(0)), 4);
    const auto g = grownGenome(cfg, 20, 8);
    const auto net = nn::FeedForwardNetwork::create(g, cfg);
    const auto plan = nn::CompiledPlan::compile(g, cfg);
    assertPathsMatch(net, plan, cfg, 8);

    std::vector<double> inputs(plan.numInputs(), 0.5);
    nn::PlanScratch scratch;
    for (auto _ : state) {
        plan.activate(inputs, scratch);
        benchmark::DoNotOptimize(scratch.outputs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        plan.macsPerInference());
}
BENCHMARK(BM_ActivateCompiledGrown)->Arg(4)->Arg(24)->Arg(128);

static void
BM_CompilePlan(benchmark::State &state)
{
    const auto cfg = benchConfig(static_cast<int>(state.range(0)), 4);
    const auto g = grownGenome(cfg, 20, 9);
    for (auto _ : state)
        benchmark::DoNotOptimize(nn::CompiledPlan::compile(g, cfg));
}
BENCHMARK(BM_CompilePlan)->Arg(4)->Arg(128);

static void
BM_CompilePlan64Hidden(benchmark::State &state)
{
    // Plan compile on the pinned 64-hidden dense genome (the genome
    // every interpreter-vs-compiled comparison above runs on): the
    // number the flat-genome/SoA refactor is measured by. ~39 us with
    // std::map gene storage + per-edge binary search, ~16 us flat.
    const auto cfg = benchConfig(kCmpInputs, kCmpOutputs);
    const auto g = denseGenome(cfg, kCmpHidden, kCmpSeed);
    {
        const auto net = nn::FeedForwardNetwork::create(g, cfg);
        const auto plan = nn::CompiledPlan::compile(g, cfg);
        assertPathsMatch(net, plan, cfg, kCmpSeed + 1);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(nn::CompiledPlan::compile(g, cfg));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(g.numGenes()));
}
BENCHMARK(BM_CompilePlan64Hidden);

static void
BM_CompilePlan64HiddenReusedScratch(benchmark::State &state)
{
    // The production compile path: one per-thread CompileScratch
    // reused across compiles (the plan cache's thread_local), so the
    // ~15 working vectors allocate once and steady-state compilation
    // is allocation-free. Compare against BM_CompilePlan64Hidden for
    // the allocation overhead the scratch removes.
    const auto cfg = benchConfig(kCmpInputs, kCmpOutputs);
    const auto g = denseGenome(cfg, kCmpHidden, kCmpSeed);
    {
        const auto net = nn::FeedForwardNetwork::create(g, cfg);
        const auto plan = nn::CompiledPlan::compile(g, cfg);
        assertPathsMatch(net, plan, cfg, kCmpSeed + 1);
    }
    nn::CompileScratch scratch;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            nn::CompiledPlan::compile(g, cfg, scratch));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(g.numGenes()));
}
BENCHMARK(BM_CompilePlan64HiddenReusedScratch);

static void
BM_NetworkCreate(benchmark::State &state)
{
    const auto cfg = benchConfig(static_cast<int>(state.range(0)), 4);
    const auto g = grownGenome(cfg, 20, 9);
    for (auto _ : state)
        benchmark::DoNotOptimize(nn::FeedForwardNetwork::create(g, cfg));
}
BENCHMARK(BM_NetworkCreate)->Arg(4)->Arg(128);

static void
BM_Levelize(benchmark::State &state)
{
    const auto cfg = benchConfig(static_cast<int>(state.range(0)), 4);
    const auto g = grownGenome(cfg, 20, 10);
    for (auto _ : state)
        benchmark::DoNotOptimize(nn::levelize(g, cfg));
}
BENCHMARK(BM_Levelize)->Arg(4)->Arg(128);

static void
BM_EncodeGenome(benchmark::State &state)
{
    const auto cfg = benchConfig(128, 8);
    const auto g = grownGenome(cfg, 10, 11);
    hw::GeneCodec codec;
    for (auto _ : state)
        benchmark::DoNotOptimize(codec.encodeGenome(g, cfg));
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(g.numGenes()));
}
BENCHMARK(BM_EncodeGenome);

static void
BM_AlignStreams(benchmark::State &state)
{
    const auto cfg = benchConfig(128, 8);
    const auto p1 = grownGenome(cfg, 10, 12);
    const auto p2 = grownGenome(cfg, 10, 13);
    hw::GeneCodec codec;
    const auto s1 = codec.encodeGenome(p1, cfg);
    const auto s2 = codec.encodeGenome(p2, cfg);
    for (auto _ : state)
        benchmark::DoNotOptimize(hw::alignStreams(s1, s2, codec));
}
BENCHMARK(BM_AlignStreams);

static void
BM_EvePeChild(benchmark::State &state)
{
    const auto cfg = benchConfig(128, 8);
    const auto p1 = grownGenome(cfg, 10, 14);
    const auto p2 = grownGenome(cfg, 10, 15);
    hw::GeneCodec codec;
    const auto stream = hw::alignStreams(codec.encodeGenome(p1, cfg),
                                         codec.encodeGenome(p2, cfg),
                                         codec);
    hw::EvePe pe(codec, hw::peConfigFrom(cfg, stream.size()), 16);
    for (auto _ : state)
        benchmark::DoNotOptimize(pe.processChild(stream));
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_EvePeChild);

// --- telemetry overhead ------------------------------------------------------
// The null-sink contract, measured: the Off/On pair drives one full
// CartPole generation (64 genomes, wave scheduler, 1 thread) through
// exec::EvalEngine with no telemetry session vs. a full trace +
// metrics session. Fitness bits are asserted identical before either
// is timed; the items_per_second ratio is the telemetry tax on the
// evaluation path. Run it with --benchmark_repetitions=10 and compare
// medians: single runs sit inside the run-to-run noise.

namespace
{

std::vector<double>
telemetryBenchGeneration(exec::EvalEngine &engine,
                         const neat::Population &pop,
                         const NeatConfig &cfg)
{
    std::vector<neat::GenomeHandle> batch;
    batch.reserve(pop.genomes().size());
    for (const auto &[gk, g] : pop.genomes())
        batch.push_back({gk, &g});
    const auto results = engine.evaluateGeneration(
        batch, cfg, exec::EvalEngine::sharedEpisodeSeeds(0xBEEF));
    std::vector<double> fits;
    fits.reserve(results.size());
    for (const auto &r : results)
        fits.push_back(r.detail.fitness);
    return fits;
}

void
telemetryOverheadBench(benchmark::State &state, bool telemetry)
{
    NeatConfig ncfg =
        core::neatConfigFor(core::workload("CartPole_v0"));
    ncfg.populationSize = 64;
    neat::Population pop(ncfg, 42);

    exec::EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = 1;
    ecfg.episodes = 1;
    ecfg.batchEpisodes = true;
    ecfg.heterogeneousLanes = true;

    // Bit-identity gate before any timing: the no-session baseline
    // fitness must match what the session-enabled engine produces.
    std::vector<double> baseline;
    {
        exec::EvalEngine engine(ecfg);
        baseline = telemetryBenchGeneration(engine, pop, ncfg);
    }

    obs::TelemetryConfig tcfg;
    tcfg.trace = telemetry;
    tcfg.metrics = telemetry;
    tcfg.dir = "/tmp/genesys-bench-telemetry";
    obs::Telemetry session(tcfg);

    exec::EvalEngine engine(ecfg);
    GENESYS_ASSERT(telemetryBenchGeneration(engine, pop, ncfg) ==
                       baseline,
                   "telemetry session changed fitness bits");

    for (auto _ : state) {
        const auto fits =
            telemetryBenchGeneration(engine, pop, ncfg);
        benchmark::DoNotOptimize(&fits);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(ncfg.populationSize)); // genomes/s
}

} // namespace

static void
BM_TelemetryOverheadOff(benchmark::State &state)
{
    telemetryOverheadBench(state, false);
}
BENCHMARK(BM_TelemetryOverheadOff);

static void
BM_TelemetryOverheadOn(benchmark::State &state)
{
    telemetryOverheadBench(state, true);
}
BENCHMARK(BM_TelemetryOverheadOn);

BENCHMARK_MAIN();
