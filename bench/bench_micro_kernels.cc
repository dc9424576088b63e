/**
 * @file
 * Microbenchmarks (google-benchmark) for the hot kernels of the
 * library, one per layer: genome crossover/mutation/distance, compiled
 * plan activation and compilation, the numerics tiers, the wave
 * scheduler, the recurrent step, the functional EvE PE and the
 * telemetry tax.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/logging.hh"
#include "core/workloads.hh"
#include "env/atari_ram.hh"
#include "env/eval_fixtures.hh"
#include "env/reference_eval.hh"
#include "env/runner.hh"
#include "exec/eval_engine.hh"
#include "hw/eve_pe.hh"
#include "nn/compiled_plan.hh"
#include "nn/plan_fixtures.hh"
#include "obs/telemetry.hh"

using namespace genesys;
using namespace genesys::neat;

constexpr int kCmpInputs = 8;
constexpr int kCmpHidden = 64;
constexpr int kCmpOutputs = 4;
constexpr uint64_t kCmpSeed = 42;

// Atari-RAM scale: Table I's RAM environments observe 128 bytes, so
// their policies carry 128 inputs and the per-step cost is
// accumulate-bound.
constexpr int kAtariInputs = 128;

static void
BM_GenomeCrossover(benchmark::State &state)
{
    const auto cfg = oracle::ioConfig(static_cast<int>(state.range(0)), 4);
    const auto p1 = oracle::grownGenome(cfg, 10, 1);
    const auto p2 = oracle::grownGenome(cfg, 10, 2);
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
    auto cfg = oracle::ioConfig(static_cast<int>(state.range(0)), 4);
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(4);
    auto g = oracle::grownGenome(cfg, 5, 5);
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
    const auto cfg = oracle::ioConfig(static_cast<int>(state.range(0)), 4);
    const auto a = oracle::grownGenome(cfg, 10, 6);
    const auto b = oracle::grownGenome(cfg, 10, 7);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.distance(b, cfg));
}
BENCHMARK(BM_GenomeDistance)->Arg(4)->Arg(128);

// --- numerics tiers: float reference vs hw-faithful fixed point --------------
// The pair below runs the same eval path (one compile + steps serial
// activate() calls) under each tier on the 8-input 64-hidden dense
// genome — the activation-bound end of the spectrum, where the
// reference tier's libm calls dominate. Before timing, the harness
// asserts that hw-vs-float output divergence stays inside the
// documented approximation bound; the hw plan's bit identity to the
// hw-tier interpreter is fuzzed in the ctest suites.

namespace
{

/** Max |hw - float| per output on this genome/input span; generous
 *  against the per-node budget (~6e-3 approx + 2^-10 quantize per
 *  node, two layers) — tightened end-to-end by the divergence suite
 *  (tests/test_numerics_divergence.cc). */
constexpr double kTierDivergenceBound = 0.08;

/** Assert hw-vs-float output proximity on random inputs. */
void
assertHwTierConsistent(const NeatConfig &cfg, const Genome &g,
                       uint64_t seed)
{
    const auto ref = nn::CompiledPlan::compileFor(g, cfg);
    const auto hw = nn::CompiledPlan::compileFor(
        g, cfg, nn::NumericsTier::HwFaithful);
    XorWow rng(seed);
    nn::PlanScratch ref_s, hw_s;
    std::vector<double> in(static_cast<size_t>(cfg.numInputs));
    for (int t = 0; t < 16; ++t) {
        for (auto &x : in)
            x = rng.uniform(-3.0, 3.0);
        hw.activate(in, hw_s);
        ref.activate(in, ref_s);
        for (size_t o = 0; o < hw_s.outputs.size(); ++o) {
            const double dv = hw_s.outputs[o] - ref_s.outputs[o];
            GENESYS_ASSERT(
                (dv < 0 ? -dv : dv) <= kTierDivergenceBound,
                "hw tier diverges from float beyond bound at "
                    << "output " << o << ": " << hw_s.outputs[o]
                    << " vs " << ref_s.outputs[o]);
        }
    }
}

/** The eval path under one tier (shared by the pair below). */
void
evalPathTiered(benchmark::State &state, nn::NumericsTier tier)
{
    const auto cfg = oracle::ioConfig(kCmpInputs, kCmpOutputs);
    const auto g = oracle::denseGenome(cfg, kCmpHidden, kCmpSeed);
    assertHwTierConsistent(cfg, g, kCmpSeed + 3);
    const auto steps = static_cast<int>(state.range(0));
    nn::PlanScratch scratch;
    const std::vector<double> in(static_cast<size_t>(kCmpInputs), 0.5);
    // Compile once, outside the timing loop: in the engine the
    // PlanCache compiles each genome once per generation while the
    // eval path runs episodesPerEval x ~hundreds of env steps against
    // that plan, so the steady-state step cost is the number the tier
    // comparison is about (BM_CompilePlan* below time the compile).
    const auto plan = nn::CompiledPlan::compileFor(g, cfg, tier);
    for (auto _ : state) {
        for (int s = 0; s < steps; ++s) {
            plan.activate(in, scratch);
            benchmark::DoNotOptimize(scratch.outputs.data());
        }
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            steps); // steps/s
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

    void
    resetInto(uint64_t seed, std::span<double> obs) override
    {
        resetBookkeeping();
        rng_ = XorWow(seed ^ 0xF17Eull);
        length_ = 40 + static_cast<int>(seed % 81);
        observe(obs);
    }

    env::StepOutcome
    stepInto(const env::Action &, std::span<double> obs) override
    {
        accumulate(1.0);
        observe(obs);
        return {1.0, stepsTaken_ >= length_};
    }

  private:
    void
    observe(std::span<double> obs)
    {
        for (auto &x : obs)
            x = rng_.uniform(-1.0, 1.0);
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
        : cfg(oracle::ioConfig(inputs, kCmpOutputs))
    {
        genomes.reserve(kWaveGenomes);
        plans.reserve(kWaveGenomes);
        seeds.reserve(kWaveGenomes);
        for (int i = 0; i < kWaveGenomes; ++i) {
            genomes.push_back(oracle::denseGenome(
                cfg, kCmpHidden, kCmpSeed + static_cast<uint64_t>(i)));
            plans.push_back(
                nn::CompiledPlan::compileFor(genomes.back(), cfg));
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
 * bit-identical to the test oracle's serial loop, and measured lane
 * occupancy at least 0.9 — the acceptance bar for the cross-genome
 * scheduler at episodesPerEval == 1. Returns the measured total environment steps
 * across the workload, so items_per_second counts env-steps without
 * re-deriving the episode lengths.
 */
long
assertWaveMatchesSerial(const WaveWorkload &w)
{
    std::vector<std::unique_ptr<env::Environment>> owned;
    const auto lanes = waveLanes(owned, w.cfg.numInputs, kWaveLanes);
    env::WaveScratch scratch;
    const auto items = w.items();
    const auto wave = env::evaluateWave(items, lanes, scratch);

    FixedLengthEnv serial_env(w.cfg.numInputs);
    const auto expect = oracle::serialEpisodes(serial_env, items);
    for (size_t i = 0; i < expect.size(); ++i)
        GENESYS_ASSERT(oracle::identical(wave.episodes[i], expect[i]),
                       "wave/serial episode diverges at item " << i);
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

// --- environment step -------------------------------------------------------
// AirRaid's RAM step on L lanes: one stepInto per lane (second arg 0)
// or one stepLanes call that interleaves the lanes' RAM-hash chains
// (second arg 1). Finished lanes reset in place. Reported per
// lane-step and kernel-only: the episode loop adds the forward pass,
// decode and retire around it.

static void
BM_AtariRamLanes(benchmark::State &state)
{
    const auto num_lanes = static_cast<size_t>(state.range(0));
    const bool together = state.range(1) != 0;
    std::vector<std::unique_ptr<env::AtariRam>> games;
    std::vector<env::Environment *> lanes;
    std::vector<std::vector<double>> obs(num_lanes,
                                         std::vector<double>(128));
    std::vector<env::Action> actions(num_lanes);
    const std::vector<uint8_t> live(num_lanes, 1);
    std::vector<env::StepOutcome> out(num_lanes);
    uint64_t seed = 1;
    for (size_t l = 0; l < num_lanes; ++l) {
        games.push_back(
            std::make_unique<env::AtariRam>(env::AtariVariant::AirRaid));
        lanes.push_back(games.back().get());
        lanes[l]->resetInto(seed++, obs[l]);
    }
    XorWow rng(7);
    std::vector<int> script(256);
    for (int &a : script)
        a = static_cast<int>(rng.uniformInt(6));

    size_t tick = 0;
    for (auto _ : state) {
        for (size_t l = 0; l < num_lanes; ++l)
            actions[l].discrete = script[(tick + 37 * l) & 255];
        ++tick;
        if (together) {
            lanes.front()->stepLanes(lanes, actions, obs, live, out);
        } else {
            for (size_t l = 0; l < num_lanes; ++l)
                out[l] = lanes[l]->stepInto(actions[l], obs[l]);
        }
        for (size_t l = 0; l < num_lanes; ++l) {
            if (out[l].done)
                lanes[l]->resetInto(seed++, obs[l]);
        }
        benchmark::DoNotOptimize(obs.data());
        benchmark::ClobberMemory();
    }
    const auto lane_steps =
        static_cast<double>(state.iterations()) *
        static_cast<double>(num_lanes);
    state.SetItemsProcessed(static_cast<int64_t>(lane_steps));
    state.counters["per_lane_step"] = benchmark::Counter(
        lane_steps,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_AtariRamLanes)
    ->ArgNames({"lanes", "together"})
    ->ArgsProduct({{1, 2, 4}, {0, 1}});

// --- recurrent step ----------------------------------------------------------
// The 64-hidden dense genome augmented with recurrent structure: a
// self-loop on every fourth hidden node plus an output->hidden back
// edge, evaluated with stateful tick semantics.

namespace
{

Genome
recurrentBenchGenome(const NeatConfig &cfg)
{
    Genome g = oracle::denseGenome(cfg, kCmpHidden, kCmpSeed);
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

} // namespace

static void
BM_RecurrentStep64Hidden(benchmark::State &state)
{
    // The recurrent step the engine runs: one lane ticks through
    // activate(), its cross-tick state in the lane's PlanScratch.
    // Plan-vs-interpreter equality lives in the ctest fuzz suites.
    // Reported per tick.
    auto cfg = oracle::ioConfig(kCmpInputs, kCmpOutputs);
    cfg.feedForward = false;
    const auto g = recurrentBenchGenome(cfg);
    const auto plan = nn::CompiledPlan::compileFor(g, cfg);

    nn::PlanScratch scratch;
    plan.reset(scratch);
    const std::vector<double> inputs(plan.numInputs(), 0.5);
    for (auto _ : state) {
        plan.activate(inputs, scratch);
        benchmark::DoNotOptimize(scratch.outputs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations())); // ticks/s
    state.counters["macs_per_step"] =
        static_cast<double>(plan.macsPerInference());
}
BENCHMARK(BM_RecurrentStep64Hidden);

static void
BM_ActivateCompiledGrown(benchmark::State &state)
{
    // One warm forward pass on a mutation-grown genome at each input
    // width, reported per MAC.
    const auto cfg = oracle::ioConfig(static_cast<int>(state.range(0)), 4);
    const auto g = oracle::grownGenome(cfg, 20, 8);
    const auto plan = nn::CompiledPlan::compileFor(g, cfg);

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
    const auto cfg = oracle::ioConfig(static_cast<int>(state.range(0)), 4);
    const auto g = oracle::grownGenome(cfg, 20, 9);
    for (auto _ : state)
        benchmark::DoNotOptimize(nn::CompiledPlan::compileFor(g, cfg));
}
BENCHMARK(BM_CompilePlan)->Arg(4)->Arg(128);

static void
BM_CompilePlan64HiddenReusedScratch(benchmark::State &state)
{
    // The production compile path on the pinned 64-hidden dense
    // genome: one per-thread CompileScratch reused across compiles
    // (the plan cache's thread_local), so the ~15 working vectors
    // allocate once and steady-state compilation is allocation-free.
    const auto cfg = oracle::ioConfig(kCmpInputs, kCmpOutputs);
    const auto g = oracle::denseGenome(cfg, kCmpHidden, kCmpSeed);
    nn::CompileScratch scratch;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            nn::CompiledPlan::compileFor(g, cfg, scratch));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(g.numGenes()));
}
BENCHMARK(BM_CompilePlan64HiddenReusedScratch);

static void
BM_EncodeGenome(benchmark::State &state)
{
    const auto cfg = oracle::ioConfig(128, 8);
    const auto g = oracle::grownGenome(cfg, 10, 11);
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
    const auto cfg = oracle::ioConfig(128, 8);
    const auto p1 = oracle::grownGenome(cfg, 10, 12);
    const auto p2 = oracle::grownGenome(cfg, 10, 13);
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
    const auto cfg = oracle::ioConfig(128, 8);
    const auto p1 = oracle::grownGenome(cfg, 10, 14);
    const auto p2 = oracle::grownGenome(cfg, 10, 15);
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
