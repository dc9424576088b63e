/**
 * @file
 * The episode loop, env::evaluateWave, against the serial oracle
 * (tests/oracle/env/reference_eval: one episode at a time, one policy
 * at a time). The kernel sweep runs three item layouts — many genomes
 * one episode each, a few genomes' episodes side by side, and one
 * genome's episodes per wave — at lane widths {1, 2, 5, 8, 16}, for
 * feed-forward and recurrent genomes, under both numerics tiers:
 * every episode bit-identical to
 * the serial loop, every plan exact against its genome's interpreter,
 * refill and occupancy accounting exact. The engine's claim order is
 * covered here too: a skewed batch must give the oracle's results,
 * compiles and counters whichever worker claims which genome. The
 * engine sweep (threads, lanes, E) lives in test_eval_engine; the
 * whole-run sweep in test_episode_batch.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "env/eval_fixtures.hh"
#include "env/expect_eval.hh"
#include "env/runner.hh"
#include "exec/eval_engine.hh"
#include "nn/compiled_plan.hh"

using namespace genesys;
using namespace genesys::exec;

// --- kernel level: evaluateWave vs the serial loop -------------------------

namespace
{

/** How a kernel case lays its episodes out as wave items. */
struct Layout
{
    const char *name;
    int genomes;
    /** Episodes per genome, adjacent in the item queue. */
    int episodes;
    /** Run each genome's episodes as its own wave (a shard at E > 1). */
    bool wavePerGenome;
};

constexpr Layout kLayouts[] = {
    // A different plan in every lane: the packing at E = 1.
    {"mixed", 13, 1, false},
    // 2 plans x 4 episodes fill 8 lanes: lanes share a plan, each on
    // its own scratch.
    {"shared", 4, 4, false},
    // Same plan in every lane.
    {"same", 8, 10, true},
};

struct KernelCase
{
    Layout layout;
    bool feedForward;
    int width;
    nn::NumericsTier tier;
};

std::vector<KernelCase>
kernelCases()
{
    std::vector<KernelCase> cases;
    for (const nn::NumericsTier tier :
         {nn::NumericsTier::Reference, nn::NumericsTier::HwFaithful})
        for (const Layout &layout : kLayouts)
            for (const bool ff : {true, false})
                for (const int width : {1, 2, 5, 8, 16})
                    cases.push_back({layout, ff, width, tier});
    return cases;
}

std::string
kernelCaseName(const ::testing::TestParamInfo<KernelCase> &info)
{
    const KernelCase &c = info.param;
    return std::string(c.layout.name) + (c.feedForward ? "_ff" : "_rec") +
           "_w" + std::to_string(c.width) +
           (c.tier == nn::NumericsTier::HwFaithful ? "_hw" : "");
}

} // namespace

class WaveKernel : public ::testing::TestWithParam<KernelCase>
{
};

TEST_P(WaveKernel, MatchesSerialOracle)
{
    const KernelCase &c = GetParam();
    const auto [cfg, genomes] =
        oracle::makeGenomes(c.layout.genomes, 61, c.feedForward);
    auto serial_env = env::makeEnvironment("CartPole_v0");

    std::vector<nn::CompiledPlan> plans;
    plans.reserve(genomes.size()); // items point into it
    std::vector<std::vector<env::WaveItem>> waves(1);
    for (size_t g = 0; g < genomes.size(); ++g) {
        SCOPED_TRACE("genome " + std::to_string(g));
        plans.push_back(
            nn::CompiledPlan::compileFor(genomes[g], cfg, c.tier));
        ASSERT_EQ(plans[g].isRecurrent(), !c.feedForward);
        std::vector<uint64_t> seeds;
        for (int e = 0; e < c.layout.episodes; ++e)
            seeds.push_back(1000 + 17 * g + 7 * static_cast<uint64_t>(e));
        oracle::expectDetailIdentical(
            oracle::evaluateDetailed(*serial_env, plans[g], seeds),
            oracle::evaluateDetailed(*serial_env, genomes[g], cfg, seeds,
                                     c.tier));
        if (c.layout.wavePerGenome && g > 0)
            waves.emplace_back();
        for (const uint64_t seed : seeds)
            waves.back().push_back({&plans[g], seed});
    }

    const oracle::Lanes lanes = oracle::makeLanes("CartPole_v0", c.width);
    env::WaveScratch scratch; // reused across waves, as a worker does
    for (const auto &items : waves) {
        const auto wave = env::evaluateWave(items, lanes.lanes, scratch);
        oracle::expectEpisodesIdentical(
            wave.episodes, oracle::serialEpisodes(*serial_env, items));

        // Every episode beyond the initial lane fill entered through a
        // refill, and the useful lane-steps are exactly the forward
        // passes.
        const long n = static_cast<long>(items.size());
        EXPECT_EQ(wave.stats.refills, n - std::min<long>(c.width, n));
        EXPECT_GT(wave.stats.supersteps, 0);
        EXPECT_EQ(wave.stats.laneSlotSteps,
                  wave.stats.supersteps * c.width);
        long inferences = 0;
        for (const auto &r : wave.episodes)
            inferences += r.inferences;
        EXPECT_EQ(wave.stats.activeLaneSteps, inferences);
        EXPECT_GT(wave.stats.occupancy(), 0.0);
        EXPECT_LE(wave.stats.occupancy(), 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(LayoutsAndWidths, WaveKernel,
                         ::testing::ValuesIn(kernelCases()),
                         kernelCaseName);

TEST(WaveSchedulerTest, EmptyWaveRunsNothing)
{
    const oracle::Lanes lanes = oracle::makeLanes("CartPole_v0", 8);
    env::WaveScratch scratch;
    const auto empty = env::evaluateWave({}, lanes.lanes, scratch);
    EXPECT_TRUE(empty.episodes.empty());
    EXPECT_EQ(empty.stats.supersteps, 0);
    EXPECT_EQ(empty.stats.laneSlotSteps, 0);
}

// --- engine level: counters and shard sizing -------------------------------

TEST(WaveSchedulerTest, OccupancyCountersObservableAndHigh)
{
    // A batch large enough to keep every refill queue full: the
    // counters must be populated, and occupancy high (the whole point
    // of the scheduler). At E = 1 an idle lane claims whenever the
    // queue has work, so a lane slot idles only after the queue runs
    // dry: then each worker drains at most lanes - 1 idle lanes for
    // at most the longest episode. That bound holds whichever worker
    // claims what; a wave that waited for all its lanes to finish
    // before refilling would break it.
    const auto [cfg, genomes] = oracle::makeGenomes(96, 79);
    const auto handles = oracle::handlesOf(genomes);
    constexpr int kThreads = 2;
    constexpr int kLanes = 8;

    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = kThreads;
    ecfg.episodes = 1;
    ecfg.waveLanes = kLanes;
    EvalEngine engine(ecfg);
    ASSERT_TRUE(engine.usesHeterogeneousWaves());
    EXPECT_EQ(engine.config().waveLanes, kLanes);

    const auto wave_results = engine.evaluateGeneration(
        handles, cfg, EvalEngine::sharedEpisodeSeeds(3));
    long wave_inferences = 0;
    long max_episode_steps = 0;
    for (const auto &r : wave_results) {
        wave_inferences += r.detail.inferences;
        max_episode_steps = std::max<long>(max_episode_steps,
                                           r.detail.maxEpisodeSteps);
    }
    const BatchStats &stats = engine.lastBatchStats();
    EXPECT_EQ(stats.laneCount, kLanes);
    EXPECT_GT(stats.waveSupersteps, 0);
    EXPECT_GT(stats.waveRefills, 0);
    EXPECT_EQ(stats.waveLaneSlotSteps, stats.waveSupersteps * kLanes);
    EXPECT_EQ(stats.waveActiveLaneSteps, wave_inferences);
    EXPECT_LE(stats.laneOccupancy(), 1.0);
    EXPECT_LE(stats.waveLaneSlotSteps - stats.waveActiveLaneSteps,
              kThreads * (kLanes - 1) * max_episode_steps);

    // heterogeneousLanes off at E = 1 runs one-lane shards: the
    // counters are still measured, and a lone lane is always live.
    // Each worker's lane claims genome after genome from the shared
    // queue, so it refills by design; only its first episode is not a
    // refill, whichever genomes it happens to claim.
    EvalEngineConfig scfg = ecfg;
    scfg.heterogeneousLanes = false;
    EvalEngine single_engine(scfg);
    EXPECT_FALSE(single_engine.usesHeterogeneousWaves());
    const auto results = single_engine.evaluateGeneration(
        handles, cfg, EvalEngine::sharedEpisodeSeeds(3));
    long inferences = 0;
    for (const auto &r : results)
        inferences += r.detail.inferences;
    const BatchStats &single = single_engine.lastBatchStats();
    EXPECT_EQ(single.laneCount, 1);
    EXPECT_GT(single.waveLaneSlotSteps, 0);
    EXPECT_EQ(single.waveLaneSlotSteps, single.waveSupersteps);
    EXPECT_EQ(single.waveActiveLaneSteps, single.waveLaneSlotSteps);
    EXPECT_EQ(single.waveActiveLaneSteps, inferences);
    EXPECT_LT(single.waveRefills, static_cast<long>(genomes.size()));
    EXPECT_EQ(single.laneOccupancy(), 1.0);
}

TEST(WaveSchedulerTest, WaveShardSizingAndFallback)
{
    // At episodes > 1 a shard holds one genome's episodes: waveLanes
    // resolves to 1 and each shard holds one lane per episode, or a
    // single lane when batching is off. Episodes == 1 sizes shards by
    // waveLanes, 2 by default.
    const auto [cfg, genomes] = oracle::makeGenomes(2, 89);
    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = 1;
    ecfg.episodes = 3;
    ecfg.waveLanes = 16;
    for (const bool batch : {true, false}) {
        SCOPED_TRACE(batch ? "batched" : "serial");
        ecfg.batchEpisodes = batch;
        EvalEngine engine(ecfg);
        EXPECT_FALSE(engine.usesHeterogeneousWaves());
        EXPECT_EQ(engine.config().waveLanes, 1);
        engine.evaluateGeneration(oracle::handlesOf(genomes), cfg,
                                  EvalEngine::sharedEpisodeSeeds(5));
        EXPECT_EQ(engine.lastBatchStats().laneCount, batch ? 3 : 1);
    }

    EvalEngineConfig wcfg = ecfg;
    wcfg.batchEpisodes = true;
    wcfg.episodes = 1;
    wcfg.waveLanes = 0;
    EvalEngine wave_engine(wcfg);
    EXPECT_TRUE(wave_engine.usesHeterogeneousWaves());
    EXPECT_EQ(wave_engine.config().waveLanes, 2);
}

// --- claim order: skewed batches through the shared genome queue ------------

namespace
{

/**
 * A skewed CartPole batch: a few hand-set balancing controllers, whose
 * episodes all run to the 200-step limit, spread among many
 * mutation-grown genomes whose episodes all end within a few steps.
 * Whoever claims a balancer holds its lanes ~20x longer than a short
 * genome, so a static split would gate the generation on that worker.
 */
oracle::GenomeSet
makeSkewedGenomes(bool feed_forward, const EvalEngine::SeedFn &seedFor)
{
    auto [cfg, pool] = oracle::makeGenomes(200, 97, feed_forward);
    const auto serial = [&cfg = cfg, &seedFor](const neat::Genome &g,
                                               int key) {
        return oracle::serialDetail("CartPole_v0", cfg, {key, &g}, 3,
                                    seedFor, nn::NumericsTier::Reference);
    };
    std::vector<neat::Genome> shorts;
    for (size_t i = 0; i < pool.size() && shorts.size() < 40; ++i) {
        if (serial(pool[i], static_cast<int>(i)).maxEpisodeSteps <= 12)
            shorts.push_back(std::move(pool[i]));
    }
    EXPECT_EQ(shorts.size(), 40u);

    // Push right when the pole leans or swings right: a linear
    // controller on (x, x_dot, theta, theta_dot) into one sigmoid
    // output, each balancer a slightly different plan.
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(5);
    std::vector<neat::Genome> batch;
    for (size_t i = 0; i < shorts.size(); ++i) {
        if (i % 10 == 3) {
            neat::Genome g = neat::Genome::createNew(0, cfg, idx, rng);
            const double gain = 1.0 + 0.1 * static_cast<double>(i);
            const double w[] = {0.1, 0.5, 10.0, 2.0};
            for (int in = 0; in < 4; ++in)
                g.mutableConnections().at({-1 - in, 0}).weight =
                    gain * w[in];
            g.mutableNodes().at(0).bias = 0.0;
            for (const auto &e :
                 serial(g, static_cast<int>(batch.size())).episodes)
                EXPECT_EQ(e.steps, 200) << "balancer " << i;
            batch.push_back(std::move(g));
        }
        batch.push_back(std::move(shorts[i]));
    }
    return {cfg, std::move(batch)};
}

} // namespace

TEST(WaveSchedulerTest, SkewedBatchIndependentOfClaimOrder)
{
    // Results, compiles and counters must not depend on which worker
    // claims which genome. At E = 1 `lanes` is the shard width
    // (waveLanes); at E = 3 a shard holds one genome's episodes, so
    // lanes == 1 runs them on one lane (batching off) and wider shards
    // hold E = 3 lanes.
    const auto seedFor = oracle::perGenomeSeeds(41);
    for (const bool feed_forward : {true, false}) {
        const auto [cfg, genomes] = makeSkewedGenomes(feed_forward, seedFor);
        // Generation 2 keeps every other genome (same key, so its plan
        // carries over) and replaces the rest under fresh keys.
        const std::vector<neat::GenomeHandle> gen1 =
            oracle::handlesOf(genomes);
        std::vector<neat::GenomeHandle> gen2;
        long fresh = 0;
        for (size_t i = 0; i < gen1.size(); ++i) {
            if (i % 2 == 0) {
                gen2.push_back(gen1[i]);
            } else {
                gen2.push_back({1000 + gen1[i].key, gen1[i].genome});
                ++fresh;
            }
        }

        for (const int episodes : {1, 3}) {
            const auto oracleFor = [&](const auto &handles) {
                return oracle::serialDetails("CartPole_v0", cfg, handles,
                                             episodes, seedFor,
                                             nn::NumericsTier::Reference);
            };
            const std::vector<oracle::DetailedEval> serial[] = {
                oracleFor(gen1), oracleFor(gen2)};
            for (const int threads : {1, 2, 3, 8}) {
                for (const int lanes : {1, 3, 8}) {
                    SCOPED_TRACE(std::string(feed_forward ? "ff" : "rec") +
                                 " E " + std::to_string(episodes) +
                                 " threads " + std::to_string(threads) +
                                 " lanes " + std::to_string(lanes));
                    EvalEngineConfig ecfg;
                    ecfg.envName = "CartPole_v0";
                    ecfg.numThreads = threads;
                    ecfg.episodes = episodes;
                    ecfg.batchEpisodes = lanes > 1;
                    ecfg.waveLanes = lanes;
                    EvalEngine engine(ecfg);
                    long compiles = 0;
                    for (int gen = 0; gen < 2; ++gen) {
                        const auto &handles = gen == 0 ? gen1 : gen2;
                        const auto &expect =
                            serial[static_cast<size_t>(gen)];
                        oracle::expectMatchesOracle(
                            oracle::evaluate(engine, handles, cfg, seedFor),
                            handles, expect);
                        long inferences = 0;
                        long lockstep = 0;
                        for (const auto &d : expect) {
                            inferences += d.inferences;
                            lockstep += d.maxEpisodeSteps;
                        }

                        // One compile per genome not carried over, and
                        // no two workers ever compile the same genome.
                        const long grown =
                            engine.planCache().compiles() - compiles;
                        compiles = engine.planCache().compiles();
                        const long not_carried =
                            gen == 0 ? static_cast<long>(handles.size())
                                     : fresh;
                        EXPECT_EQ(grown, not_carried);
                        EXPECT_EQ(compiles,
                                  static_cast<long>(gen1.size()) +
                                      (gen == 0 ? 0 : fresh));

                        const BatchStats &stats = engine.lastBatchStats();
                        EXPECT_EQ(stats.waveActiveLaneSteps, inferences);
                        EXPECT_EQ(stats.waveLaneSlotSteps,
                                  stats.waveSupersteps * stats.laneCount);
                        // A genome's E episodes fill an E-lane shard
                        // together and no other genome joins until all
                        // have ended: each genome costs exactly its
                        // longest episode in supersteps.
                        if (episodes > 1 && stats.laneCount == episodes) {
                            EXPECT_EQ(stats.waveSupersteps, lockstep);
                        }
                    }
                }
            }
        }
    }
}
