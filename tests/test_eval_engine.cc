/**
 * @file
 * Tests for the parallel batched evaluation engine (src/exec/). The
 * engine sweep runs one generation at E in {1, 5} x threads {1, 2, 8}
 * x wave lanes {default, 3, 16} x feed-forward/recurrent x numerics
 * tier {Reference, HwFaithful}, plus the batchEpisodes and
 * heterogeneousLanes knobs switched off, and checks
 * every genome, episode for episode, against the serial oracle
 * (tests/oracle/env/reference_eval) — twice on one engine, so the
 * second pass runs on carried-over plans. Also here: thread-pool
 * coverage, env-pool isolation, batch statistics and the hardened
 * edges (tiny batches, compile failures, bad configs). The kernel
 * sweep lives in test_wave_scheduler; the whole-run sweep in
 * test_episode_batch.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "core/genesys.hh"
#include "env/eval_fixtures.hh"
#include "env/expect_eval.hh"
#include "exec/eval_engine.hh"
#include "exec/env_pool.hh"
#include "exec/thread_pool.hh"
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

// --- the engine sweep: every configuration against the serial oracle ------

namespace
{

struct EngineCase
{
    int episodes;
    int threads;
    /** EvalEngineConfig::waveLanes; 0 is the default width. */
    int waveLanes;
    bool feedForward;
    nn::NumericsTier tier;
    bool batchEpisodes = true;
    bool heterogeneousLanes = true;
};

std::vector<EngineCase>
engineCases()
{
    std::vector<EngineCase> cases;
    for (const nn::NumericsTier tier :
         {nn::NumericsTier::Reference, nn::NumericsTier::HwFaithful}) {
        for (const bool ff : {true, false}) {
            for (const int episodes : {1, 5}) {
                for (const int threads : {1, 2, 8})
                    for (const int lanes : {0, 3, 16})
                        cases.push_back(
                            {episodes, threads, lanes, ff, tier});
                cases.push_back({episodes, 2, 0, ff, tier, false, true});
                cases.push_back({episodes, 2, 0, ff, tier, true, false});
            }
        }
    }
    return cases;
}

std::string
engineCaseName(const ::testing::TestParamInfo<EngineCase> &info)
{
    const EngineCase &c = info.param;
    std::string name = std::to_string(c.episodes);
    name += "_t" + std::to_string(c.threads);
    name += "_l" + std::to_string(c.waveLanes);
    name += c.feedForward ? "_ff" : "_rec";
    name += c.tier == nn::NumericsTier::HwFaithful ? "_hw" : "";
    name += c.batchEpisodes ? "" : "_unbatched";
    name += c.heterogeneousLanes ? "" : "_homogeneous";
    return "E" + name;
}

} // namespace

class EngineSweep : public ::testing::TestWithParam<EngineCase>
{
};

TEST_P(EngineSweep, MatchesSerialOracle)
{
    const EngineCase &c = GetParam();
    const auto [cfg, genomes] = oracle::makeGenomes(24, 5, c.feedForward);
    const auto handles = oracle::handlesOf(genomes);

    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = c.threads;
    ecfg.episodes = c.episodes;
    ecfg.waveLanes = c.waveLanes;
    ecfg.batchEpisodes = c.batchEpisodes;
    ecfg.heterogeneousLanes = c.heterogeneousLanes;
    ecfg.numericsTier = c.tier;
    EvalEngine engine(ecfg);
    std::vector<nn::CompiledPlan> fresh;
    for (const auto &g : genomes)
        fresh.push_back(
            nn::CompiledPlan::compileFor(g, cfg, ecfg.numericsTier));

    // Two passes under different seeds: the second runs on
    // carried-over plans and environments the first left dirty, and
    // must still equal the oracle's fresh environment — reset(seed)
    // fully re-initializes a lane, so worker history is invisible.
    for (const uint64_t base : {82, 83}) {
        SCOPED_TRACE("seed base " + std::to_string(base));
        const auto seedFor = oracle::perGenomeSeeds(base);
        const auto run = oracle::evaluate(engine, handles, cfg, seedFor);
        oracle::expectMatchesOracle(
            run, handles,
            oracle::serialDetails("CartPole_v0", cfg, handles, c.episodes,
                                  seedFor, ecfg.numericsTier));
        // Every result carries its genome's plan, whichever worker
        // compiled it: the schedule the hardware model reads, whose
        // totals match the detail's MAC accounting.
        for (size_t i = 0; i < fresh.size(); ++i) {
            const auto &plan = *run.results[i].plan;
            EXPECT_EQ(plan.schedule().totalMacs(), plan.macsPerInference());
            EXPECT_EQ(plan.schedule().totalMacs(),
                      fresh[i].schedule().totalMacs());
            EXPECT_EQ(plan.schedule().denseCells(),
                      fresh[i].schedule().denseCells());
        }
    }
    // One compile per genome, ever: the second pass compiled nothing.
    EXPECT_EQ(engine.planCache().compiles(),
              static_cast<long>(genomes.size()));
    EXPECT_EQ(engine.planCache().size(), genomes.size());
}

INSTANTIATE_TEST_SUITE_P(EpisodesThreadsLanes, EngineSweep,
                         ::testing::ValuesIn(engineCases()),
                         engineCaseName);

TEST(EvalEngineTest, SeedMixerSeparatesStreams)
{
    // Distinct (genome, episode) coordinates must yield distinct
    // seeds; the shared policy must ignore the genome coordinate.
    const auto mixed = oracle::perGenomeSeeds(7);
    std::set<uint64_t> seen;
    for (int g = 0; g < 32; ++g)
        for (int e = 0; e < 8; ++e)
            seen.insert(mixed(g, e));
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

// --- batch statistics -------------------------------------------------------

TEST(EvalEngineTest, BatchStatsMapOntoWaves)
{
    const auto [cfg, genomes] = oracle::makeGenomes(10, 13);

    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = 2;
    ecfg.episodes = 1;
    ecfg.waveWidth = 4; // 10 genomes -> waves of 4, 4, 2
    EvalEngine engine(ecfg);

    const auto results = engine.evaluateGeneration(
        oracle::handlesOf(genomes), cfg, EvalEngine::sharedEpisodeSeeds(1));
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
}

TEST(EvalEngineTest, WorkerBusyGaugesPopulated)
{
    // The imbalance gauges: each worker's busy time in the evaluation
    // pass, as a max and a mean — equal with one worker — mirrored
    // into the active metrics registry.
    const auto [cfg, genomes] = oracle::makeGenomes(24, 19);
    obs::MetricsRegistry reg;
    obs::MetricsRegistry::install(&reg);
    for (int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        EvalEngineConfig ecfg;
        ecfg.envName = "CartPole_v0";
        ecfg.numThreads = threads;
        ecfg.episodes = 1;
        EvalEngine engine(ecfg);
        engine.evaluateGeneration(oracle::handlesOf(genomes), cfg,
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
    // must still match the serial oracle genome for genome.
    const auto [cfg, genomes] = oracle::makeGenomes(3, 31);
    const auto handles = oracle::handlesOf(genomes);
    const auto seedFor = oracle::perGenomeSeeds(17);
    const auto expect = oracle::serialDetails(
        "CartPole_v0", cfg, handles, 1, seedFor, nn::NumericsTier::Reference);

    for (int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        EvalEngineConfig wcfg;
        wcfg.envName = "CartPole_v0";
        wcfg.numThreads = threads;
        wcfg.episodes = 1;
        wcfg.waveLanes = 8;
        EvalEngine engine(wcfg);
        ASSERT_TRUE(engine.usesHeterogeneousWaves());
        oracle::expectMatchesOracle(
            oracle::evaluate(engine, handles, cfg, seedFor), handles,
            expect);
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
    const auto [cfg, genomes] = oracle::makeGenomes(6, 37);
    neat::Genome bad(97); // no node genes at all

    auto handles = oracle::handlesOf(genomes);
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
                             oracle::perGenomeSeeds(7)),
                         std::logic_error);

            // The engine survives the failure: a clean batch on the
            // same instance still evaluates.
            const auto ok = engine.evaluateGeneration(
                oracle::handlesOf(genomes), cfg,
                oracle::perGenomeSeeds(7));
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
