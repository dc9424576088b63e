/**
 * @file
 * Tests for the parallel batched evaluation engine (src/exec/):
 * thread-pool coverage, serial/parallel bit-equality, determinism
 * across repeated runs, and env-pool episode isolation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "core/genesys.hh"
#include "exec/eval_engine.hh"
#include "exec/env_pool.hh"
#include "exec/thread_pool.hh"
#include "neat/per_genome.hh"
#include "obs/metrics.hh"

using namespace genesys;
using namespace genesys::exec;

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);

    constexpr std::size_t kItems = 1000;
    std::vector<std::atomic<int>> hits(kItems);
    pool.parallelFor(kItems, [&](std::size_t i, int worker) {
        EXPECT_GE(worker, 0);
        EXPECT_LT(worker, 4);
        hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < kItems; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "item " << i;
}

TEST(ThreadPoolTest, SingleThreadRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1);
    int count = 0;
    pool.parallelFor(17, [&](std::size_t, int worker) {
        EXPECT_EQ(worker, 0);
        ++count;
    });
    EXPECT_EQ(count, 17);
}

TEST(ThreadPoolTest, BackToBackJobsDoNotInterfere)
{
    ThreadPool pool(3);
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> sum{0};
        pool.parallelFor(round + 1, [&](std::size_t i, int) {
            sum.fetch_add(static_cast<int>(i) + 1);
        });
        const int n = round + 1;
        EXPECT_EQ(sum.load(), n * (n + 1) / 2);
    }
}

// --- helpers ----------------------------------------------------------------

namespace
{

/** A small evaluated-once population for engine-level tests. */
std::pair<neat::NeatConfig, std::vector<neat::Genome>>
makeGenomes(int count, uint64_t seed)
{
    auto env = env::makeEnvironment("CartPole_v0");
    neat::NeatConfig cfg = env::configForEnvironment(*env);
    cfg.populationSize = count;
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(seed);
    std::vector<neat::Genome> genomes;
    genomes.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
        auto g = neat::Genome::createNew(i, cfg, idx, rng);
        for (int m = 0; m < 8; ++m)
            g.mutate(cfg, idx, rng);
        genomes.push_back(std::move(g));
    }
    return {cfg, std::move(genomes)};
}

std::vector<neat::GenomeHandle>
handlesOf(const std::vector<neat::Genome> &genomes)
{
    std::vector<neat::GenomeHandle> hs;
    hs.reserve(genomes.size());
    for (size_t i = 0; i < genomes.size(); ++i)
        hs.push_back({static_cast<int>(i), &genomes[i]});
    return hs;
}

std::vector<GenomeEvalResult>
evaluateWithThreads(int threads, const neat::NeatConfig &cfg,
                    const std::vector<neat::Genome> &genomes,
                    int episodes = 3)
{
    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = threads;
    ecfg.episodes = episodes;
    EvalEngine engine(ecfg);
    return engine.evaluateGeneration(handlesOf(genomes), cfg,
                                     EvalEngine::perGenomeSeeds(99));
}

} // namespace

// --- serial == parallel, genome for genome ----------------------------------

TEST(EvalEngineTest, ParallelMatchesSerialGenomeForGenome)
{
    const auto [cfg, genomes] = makeGenomes(24, 5);
    const auto serial = evaluateWithThreads(1, cfg, genomes);

    for (int threads : {2, 8}) {
        const auto parallel = evaluateWithThreads(threads, cfg, genomes);
        ASSERT_EQ(parallel.size(), serial.size());
        for (size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(parallel[i].genomeKey, serial[i].genomeKey);
            // Bit-identical, not approximately equal.
            EXPECT_EQ(parallel[i].detail.fitness,
                      serial[i].detail.fitness)
                << "genome " << i << " at " << threads << " threads";
            EXPECT_EQ(parallel[i].detail.inferences,
                      serial[i].detail.inferences);
            EXPECT_EQ(parallel[i].detail.macs, serial[i].detail.macs);
            EXPECT_EQ(parallel[i].detail.maxEpisodeSteps,
                      serial[i].detail.maxEpisodeSteps);
        }
    }
}

TEST(EvalEngineTest, SystemRunBitIdenticalAcrossThreadCounts)
{
    auto run = [](int threads) {
        core::SystemConfig cfg;
        cfg.envName = "CartPole_v0";
        cfg.maxGenerations = 4;
        cfg.seed = 21;
        cfg.numThreads = threads;
        core::System sys(cfg);
        auto summary = sys.run();
        return std::make_pair(summary, sys.reports());
    };

    const auto [s1, r1] = run(1);
    for (int threads : {2, 8}) {
        const auto [sn, rn] = run(threads);
        EXPECT_EQ(sn.solved, s1.solved);
        EXPECT_EQ(sn.generations, s1.generations);
        EXPECT_EQ(sn.bestFitness, s1.bestFitness);
        EXPECT_EQ(sn.totalEvolutionEnergyJ, s1.totalEvolutionEnergyJ);
        EXPECT_EQ(sn.totalInferenceEnergyJ, s1.totalInferenceEnergyJ);
        ASSERT_EQ(rn.size(), r1.size());
        for (size_t i = 0; i < r1.size(); ++i) {
            EXPECT_EQ(rn[i].algo.bestFitness, r1[i].algo.bestFitness);
            EXPECT_EQ(rn[i].algo.meanFitness, r1[i].algo.meanFitness);
            EXPECT_EQ(rn[i].inferenceSteps, r1[i].inferenceSteps);
            EXPECT_EQ(rn[i].hw.eve.cycles, r1[i].hw.eve.cycles);
            EXPECT_EQ(rn[i].hw.adam.cycles, r1[i].hw.adam.cycles);
        }
    }
}

// --- determinism across repeated runs ---------------------------------------

TEST(EvalEngineTest, RepeatedRunsAreDeterministic)
{
    const auto [cfg, genomes] = makeGenomes(16, 11);
    const auto a = evaluateWithThreads(4, cfg, genomes);
    const auto b = evaluateWithThreads(4, cfg, genomes);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].detail.fitness, b[i].detail.fitness);
        EXPECT_EQ(a[i].detail.inferences, b[i].detail.inferences);
    }
}

TEST(EvalEngineTest, SeedMixerSeparatesStreams)
{
    // Distinct (genome, episode) coordinates must yield distinct
    // seeds; the shared policy must ignore the genome coordinate.
    std::set<uint64_t> seen;
    for (int g = 0; g < 32; ++g)
        for (int e = 0; e < 8; ++e)
            seen.insert(EvalEngine::mixSeed(7, g, e));
    EXPECT_EQ(seen.size(), 32u * 8u);

    const auto shared = EvalEngine::sharedEpisodeSeeds(7);
    EXPECT_EQ(shared(0, 3), shared(31, 3));
    EXPECT_NE(shared(0, 3), shared(0, 4));
}

// --- env-pool isolation -----------------------------------------------------

TEST(EnvPoolTest, ShardsAreIndependentInstances)
{
    EnvPool pool("CartPole_v0", 3);
    ASSERT_EQ(pool.size(), 3);
    EXPECT_NE(pool.shard(0).front(), pool.shard(1).front());
    EXPECT_NE(pool.shard(1).front(), pool.shard(2).front());

    // Stepping one shard must not disturb another: run an episode on
    // shard 0, then reset shard 1 with the same seed and check it
    // starts from the same initial observation as a fresh instance.
    auto fresh = env::makeEnvironment("CartPole_v0");
    const auto expect_obs = fresh->reset(42);

    env::Environment &dirty = *pool.shard(0).front();
    dirty.reset(42);
    for (int i = 0; i < 5; ++i)
        dirty.step(env::Action{1, {}});

    const auto obs = pool.shard(1).front()->reset(42);
    EXPECT_EQ(obs, expect_obs);
}

TEST(EvalEngineTest, NoCrossEpisodeStateLeakage)
{
    // The same genome evaluated (a) alone on a fresh engine and
    // (b) sandwiched inside a large batch that dirties every worker's
    // environment must score identically: reset(seed) fully
    // re-initializes a shard, so worker history is invisible.
    const auto [cfg, genomes] = makeGenomes(12, 3);
    const auto probeCfg = cfg;

    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = 4;
    ecfg.episodes = 2;

    EvalEngine fresh_engine(ecfg);
    const auto alone = fresh_engine.evaluateGeneration(
        {{7, &genomes[7]}}, probeCfg, EvalEngine::perGenomeSeeds(5));

    EvalEngine dirty_engine(ecfg);
    // Dirty every worker with two full batches, then re-evaluate.
    dirty_engine.evaluateGeneration(handlesOf(genomes), probeCfg,
                                    EvalEngine::perGenomeSeeds(123));
    dirty_engine.evaluateGeneration(handlesOf(genomes), probeCfg,
                                    EvalEngine::perGenomeSeeds(456));
    const auto batched = dirty_engine.evaluateGeneration(
        handlesOf(genomes), probeCfg, EvalEngine::perGenomeSeeds(5));

    ASSERT_EQ(alone.size(), 1u);
    EXPECT_EQ(batched[7].genomeKey, alone[0].genomeKey);
    EXPECT_EQ(batched[7].detail.fitness, alone[0].detail.fitness);
    EXPECT_EQ(batched[7].detail.inferences, alone[0].detail.inferences);
}

// --- batch statistics -------------------------------------------------------

TEST(EvalEngineTest, BatchStatsMapOntoWaves)
{
    const auto [cfg, genomes] = makeGenomes(10, 13);

    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = 2;
    ecfg.episodes = 1;
    ecfg.waveWidth = 4; // 10 genomes -> waves of 4, 4, 2
    EvalEngine engine(ecfg);

    const auto results = engine.evaluateGeneration(
        handlesOf(genomes), cfg, EvalEngine::sharedEpisodeSeeds(1));
    const BatchStats &stats = engine.lastBatchStats();

    ASSERT_EQ(stats.waves.size(), 3u);
    EXPECT_EQ(stats.waveWidth, 4);
    EXPECT_EQ(stats.waves[0].genomes, 4);
    EXPECT_EQ(stats.waves[1].genomes, 4);
    EXPECT_EQ(stats.waves[2].genomes, 2);

    long total = 0;
    for (const auto &r : results)
        total += r.detail.inferences;
    EXPECT_EQ(stats.totalInferences(), total);

    // Lockstep: each wave runs as long as its longest member.
    long expect_lockstep = 0;
    for (size_t w = 0; w < 3; ++w) {
        long wave_max = 0;
        for (size_t i = w * 4; i < std::min<size_t>(results.size(),
                                                    (w + 1) * 4);
             ++i)
            wave_max =
                std::max(wave_max, results[i].detail.inferences);
        expect_lockstep += wave_max;
        EXPECT_EQ(stats.waves[w].lockstepSteps, wave_max);
    }
    EXPECT_EQ(stats.lockstepSteps(), expect_lockstep);
    EXPECT_GT(stats.meanOccupancy(), 0.8); // 10 of 12 slots
    EXPECT_LE(stats.lockstepEfficiency(), 1.0);
    EXPECT_GT(stats.lockstepEfficiency(), 0.0);
}

TEST(EvalEngineTest, WorkerBusyGaugesPopulated)
{
    // The imbalance gauges: each worker's busy time in the evaluation
    // pass, as a max and a mean — equal with one worker — mirrored
    // into the active metrics registry.
    const auto [cfg, genomes] = makeGenomes(24, 19);
    obs::MetricsRegistry reg;
    obs::MetricsRegistry::install(&reg);
    for (int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        EvalEngineConfig ecfg;
        ecfg.envName = "CartPole_v0";
        ecfg.numThreads = threads;
        ecfg.episodes = 1;
        EvalEngine engine(ecfg);
        engine.evaluateGeneration(handlesOf(genomes), cfg,
                                  EvalEngine::sharedEpisodeSeeds(2));
        const BatchStats &stats = engine.lastBatchStats();
        EXPECT_GT(stats.workerBusyMeanMs, 0.0);
        EXPECT_GE(stats.workerBusyMaxMs, stats.workerBusyMeanMs);
        if (threads == 1) {
            EXPECT_EQ(stats.workerBusyMaxMs, stats.workerBusyMeanMs);
        }
        EXPECT_EQ(reg.gauge("eval.worker_busy_max_ms").value(),
                  stats.workerBusyMaxMs);
        EXPECT_EQ(reg.gauge("eval.worker_busy_mean_ms").value(),
                  stats.workerBusyMeanMs);
    }
    obs::MetricsRegistry::install(nullptr);
}

// --- engine edges: tiny batches, bad genomes, bad configs --------------------

TEST(EvalEngineTest, PopulationSmallerThanLaneWidth)
{
    // 3 genomes on 8-lane wave shards: spare lanes idle, results
    // must still match the serial path genome for genome.
    const auto [cfg, genomes] = makeGenomes(3, 31);

    EvalEngineConfig serial_cfg;
    serial_cfg.envName = "CartPole_v0";
    serial_cfg.numThreads = 1;
    serial_cfg.episodes = 1;
    serial_cfg.batchEpisodes = false;
    serial_cfg.heterogeneousLanes = false;
    EvalEngine serial_engine(serial_cfg);
    const auto reference = serial_engine.evaluateGeneration(
        handlesOf(genomes), cfg, EvalEngine::perGenomeSeeds(17));

    for (int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        EvalEngineConfig wcfg = serial_cfg;
        wcfg.numThreads = threads;
        wcfg.batchEpisodes = true;
        wcfg.heterogeneousLanes = true;
        wcfg.waveLanes = 8;
        EvalEngine engine(wcfg);
        ASSERT_TRUE(engine.usesHeterogeneousWaves());
        const auto waved = engine.evaluateGeneration(
            handlesOf(genomes), cfg, EvalEngine::perGenomeSeeds(17));
        ASSERT_EQ(waved.size(), reference.size());
        for (size_t i = 0; i < reference.size(); ++i) {
            EXPECT_EQ(waved[i].genomeKey, reference[i].genomeKey);
            EXPECT_EQ(waved[i].detail.fitness,
                      reference[i].detail.fitness);
            EXPECT_EQ(waved[i].detail.inferences,
                      reference[i].detail.inferences);
        }
        // Undersubscribed lanes show up as (truthfully low)
        // occupancy, not as a crash or a phantom workload.
        const BatchStats &stats = engine.lastBatchStats();
        EXPECT_GT(stats.waveLaneSlotSteps, 0);
        EXPECT_LT(stats.laneOccupancy(), 1.0);
    }
}

TEST(EvalEngineTest, CompileFailurePropagatesAsException)
{
    // A genome whose plan compile fails validation (no node gene for
    // its output) must surface as an ordinary exception on the
    // calling thread — at any thread count and on every execution
    // path — never as std::terminate from a pool worker or as UB.
    const auto [cfg, genomes] = makeGenomes(6, 37);
    neat::Genome bad(97); // no node genes at all

    auto handles = handlesOf(genomes);
    handles.push_back({97, &bad});

    for (int threads : {1, 4}) {
        for (const char *mode : {"serial", "batch", "waves"}) {
            SCOPED_TRACE(std::string(mode) + " threads " +
                         std::to_string(threads));
            EvalEngineConfig ecfg;
            ecfg.envName = "CartPole_v0";
            ecfg.numThreads = threads;
            ecfg.episodes = 1;
            ecfg.batchEpisodes = std::string(mode) != "serial";
            ecfg.heterogeneousLanes = std::string(mode) == "waves";
            EvalEngine engine(ecfg);
            EXPECT_THROW(engine.evaluateGeneration(
                             handles, cfg,
                             EvalEngine::perGenomeSeeds(7)),
                         std::logic_error);

            // The engine survives the failure: a clean batch on the
            // same instance still evaluates.
            const auto ok = engine.evaluateGeneration(
                handlesOf(genomes), cfg,
                EvalEngine::perGenomeSeeds(7));
            EXPECT_EQ(ok.size(), genomes.size());
        }
    }
}

TEST(EvalEngineTest, ZeroEpisodeConfigRejected)
{
    // Zero (or negative) episodes is a configuration error reported
    // through the usual assertion channel — constructing the engine
    // throws instead of dividing by zero in the fitness mean later.
    for (int episodes : {0, -3}) {
        EvalEngineConfig ecfg;
        ecfg.envName = "CartPole_v0";
        ecfg.numThreads = 2;
        ecfg.episodes = episodes;
        EXPECT_THROW(EvalEngine{ecfg}, std::logic_error)
            << "episodes=" << episodes;
    }
}

// --- evolution trace retention ---------------------------------------------

TEST(PopulationTraceTest, KeepsOnlyTheTraceThatBredTheCurrentGeneration)
{
    auto env = env::makeEnvironment("CartPole_v0");
    neat::NeatConfig cfg = env::configForEnvironment(*env);
    cfg.populationSize = 20;
    cfg.fitnessThreshold = 1e18; // never solve
    neat::Population pop(cfg, 17);
    EXPECT_TRUE(pop.traces().empty());

    const auto fitness =
        neat::oracle::perGenome([](const neat::Genome &g) {
            return static_cast<double>(g.numConnectionGenes());
        });
    for (int i = 0; i < 6; ++i) {
        pop.stepBatch(fitness);
        ASSERT_EQ(pop.traces().size(), 1u) << "after step " << i;
        // The held trace bred exactly the genomes now in the
        // population.
        const auto &children = pop.traces().back().children;
        ASSERT_EQ(children.size(), pop.genomes().size());
        for (const auto &rec : children)
            EXPECT_EQ(pop.genomes().count(rec.childKey), 1u)
                << "after step " << i;
    }
}
