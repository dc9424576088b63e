/**
 * @file
 * Differential tests for the engine's episode loop, env::evaluateWave:
 * the lane kernel and every engine configuration built on it must be
 * bit-identical to the serial one-episode-at-a-time loop — episode for
 * episode, genome for genome, and down to whole-run RunSummary digests
 * — across lane widths and thread counts, whichever worker claims
 * which genome, for feed-forward and recurrent populations. Waves of
 * many genomes (a different plan per lane) are covered here; waves of
 * one genome's episodes (same plan in every lane) are covered by
 * test_episode_batch. The suite also locks the loop's observability:
 * occupancy counters populated on every configuration, refill
 * accounting exact, shared-plan lanes grouped into batched dispatches,
 * one compile per genome whoever claims it.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/genesys.hh"
#include "env/runner.hh"
#include "exec/eval_engine.hh"
#include "nn/compiled_plan.hh"

using namespace genesys;
using namespace genesys::exec;

namespace
{

/** Mutation-grown genomes on the CartPole config. */
std::pair<neat::NeatConfig, std::vector<neat::Genome>>
makeGenomes(int count, uint64_t seed, bool feed_forward = true)
{
    auto env = env::makeEnvironment("CartPole_v0");
    neat::NeatConfig cfg = env::configForEnvironment(*env);
    cfg.populationSize = count;
    cfg.feedForward = feed_forward;
    // Non-trivial policies: perturb weights away from the paper's
    // all-zero init so episodes take varied lengths.
    cfg.weight.initStdev = 1.0;
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(seed);
    std::vector<neat::Genome> genomes;
    genomes.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
        auto g = neat::Genome::createNew(i, cfg, idx, rng);
        for (int m = 0; m < 10; ++m)
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

std::vector<env::Environment *>
makeLanes(std::vector<std::unique_ptr<env::Environment>> &owned,
          int width)
{
    std::vector<env::Environment *> lanes;
    for (int l = 0; l < width; ++l) {
        owned.push_back(env::makeEnvironment("CartPole_v0"));
        lanes.push_back(owned.back().get());
    }
    return lanes;
}

void
expectEpisodeIdentical(const env::EpisodeResult &a,
                       const env::EpisodeResult &b)
{
    EXPECT_EQ(a.fitness, b.fitness);
    EXPECT_EQ(a.cumulativeReward, b.cumulativeReward);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.inferences, b.inferences);
    EXPECT_EQ(a.macs, b.macs);
}

void
expectDetailIdentical(const env::EvalDetail &a, const env::EvalDetail &b)
{
    EXPECT_EQ(a.fitness, b.fitness);
    EXPECT_EQ(a.inferences, b.inferences);
    EXPECT_EQ(a.macs, b.macs);
    EXPECT_EQ(a.maxEpisodeSteps, b.maxEpisodeSteps);
    ASSERT_EQ(a.episodes.size(), b.episodes.size());
    for (size_t e = 0; e < a.episodes.size(); ++e)
        expectEpisodeIdentical(a.episodes[e], b.episodes[e]);
}

} // namespace

// --- kernel level: evaluateWave vs one-episode-at-a-time ---------------------

TEST(WaveSchedulerTest, HeterogeneousWaveMatchesSerialAcrossWidths)
{
    for (const bool feed_forward : {true, false}) {
        const auto [cfg, genomes] = makeGenomes(13, 61, feed_forward);

        // One episode of each genome, every genome a different plan —
        // the plan-heterogeneous packing the scheduler exists for.
        std::vector<nn::CompiledPlan> plans;
        plans.reserve(genomes.size());
        for (const auto &g : genomes)
            plans.push_back(nn::CompiledPlan::compileFor(g, cfg));

        std::vector<env::WaveItem> items;
        std::vector<env::EpisodeResult> expect;
        auto serial_env = env::makeEnvironment("CartPole_v0");
        for (size_t i = 0; i < plans.size(); ++i) {
            const uint64_t seed = 1000 + 17 * i;
            items.push_back({&plans[i], seed});
            env::EpisodeRunner runner(*serial_env, seed, 1);
            nn::PlanScratch scratch;
            expect.push_back(
                runner.runEpisode(plans[i], scratch, seed));
        }

        for (int width : {1, 2, 5, 8, 16}) {
            SCOPED_TRACE(std::string(feed_forward ? "ff" : "rec") +
                         " width " + std::to_string(width));
            std::vector<std::unique_ptr<env::Environment>> owned;
            const auto lanes = makeLanes(owned, width);
            env::WaveScratch scratch;
            const auto wave =
                env::evaluateWave(items, lanes, scratch);

            ASSERT_EQ(wave.episodes.size(), expect.size());
            for (size_t i = 0; i < expect.size(); ++i) {
                SCOPED_TRACE("item " + std::to_string(i));
                expectEpisodeIdentical(wave.episodes[i], expect[i]);
            }

            // Refill accounting: every episode beyond the initial
            // lane fill entered through a refill.
            const long fill = std::min<long>(
                width, static_cast<long>(items.size()));
            EXPECT_EQ(wave.stats.refills,
                      static_cast<long>(items.size()) - fill);
            EXPECT_GT(wave.stats.supersteps, 0);
            EXPECT_EQ(wave.stats.laneSlotSteps,
                      wave.stats.supersteps * width);
            EXPECT_GE(wave.stats.laneSlotSteps,
                      wave.stats.activeLaneSteps);
            // Useful lane-steps are exactly the forward passes.
            long inferences = 0;
            for (const auto &r : wave.episodes)
                inferences += r.inferences;
            EXPECT_EQ(wave.stats.activeLaneSteps, inferences);
            EXPECT_GT(wave.stats.occupancy(), 0.0);
            EXPECT_LE(wave.stats.occupancy(), 1.0);
        }
    }
}

TEST(WaveSchedulerTest, SharedPlanLanesGroupIntoBatchedDispatch)
{
    // Several episodes of the same plans, adjacent in the item queue:
    // same-plan lanes must execute through the grouped activateBatch
    // dispatch (observable in the stats) and stay bit-identical to
    // the serial loop.
    const auto [cfg, genomes] = makeGenomes(4, 67);
    std::vector<nn::CompiledPlan> plans;
    plans.reserve(genomes.size());
    for (const auto &g : genomes)
        plans.push_back(nn::CompiledPlan::compileFor(g, cfg));

    std::vector<env::WaveItem> items;
    std::vector<std::vector<uint64_t>> seeds(plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
        for (int e = 0; e < 4; ++e) {
            const uint64_t seed = 31 * (i + 1) + 7 * e;
            items.push_back({&plans[i], seed});
            seeds[i].push_back(seed);
        }
    }

    std::vector<std::unique_ptr<env::Environment>> owned;
    const auto lanes = makeLanes(owned, 8);
    env::WaveScratch scratch;
    const auto wave = env::evaluateWave(items, lanes, scratch);

    // The initial fill packs 2 plans x 4 episodes onto the 8 lanes,
    // so grouped dispatch must have fired.
    EXPECT_GT(wave.stats.groupedLaneActivations, 0);

    size_t k = 0;
    for (size_t i = 0; i < plans.size(); ++i) {
        auto serial_env = env::makeEnvironment("CartPole_v0");
        env::EpisodeRunner runner(*serial_env, seeds[i].front(),
                                  static_cast<int>(seeds[i].size()));
        const auto serial = runner.evaluateDetailed(plans[i], seeds[i]);
        for (size_t e = 0; e < seeds[i].size(); ++e, ++k) {
            SCOPED_TRACE("plan " + std::to_string(i) + " episode " +
                         std::to_string(e));
            expectEpisodeIdentical(wave.episodes[k],
                                   serial.episodes[e]);
        }
    }
}

TEST(WaveSchedulerTest, EmptyAndUndersubscribedWaves)
{
    const auto [cfg, genomes] = makeGenomes(2, 71);
    const auto plan = nn::CompiledPlan::compileFor(genomes[0], cfg);

    std::vector<std::unique_ptr<env::Environment>> owned;
    const auto lanes = makeLanes(owned, 8);
    env::WaveScratch scratch;

    // No items: nothing runs, nothing counted.
    const auto empty = env::evaluateWave({}, lanes, scratch);
    EXPECT_TRUE(empty.episodes.empty());
    EXPECT_EQ(empty.stats.supersteps, 0);

    // Fewer items than lanes: spare lanes idle but are accounted as
    // unoccupied slots, and results still match the serial episode.
    std::vector<env::WaveItem> items{{&plan, 5}};
    const auto wave = env::evaluateWave(items, lanes, scratch);
    ASSERT_EQ(wave.episodes.size(), 1u);
    auto serial_env = env::makeEnvironment("CartPole_v0");
    env::EpisodeRunner runner(*serial_env, 5, 1);
    nn::PlanScratch pscratch;
    expectEpisodeIdentical(wave.episodes[0],
                           runner.runEpisode(plan, pscratch, 5));
    EXPECT_EQ(wave.stats.refills, 0);
    EXPECT_EQ(wave.stats.laneSlotSteps, wave.stats.supersteps * 8);
    EXPECT_EQ(wave.stats.activeLaneSteps, wave.stats.supersteps);
}

// --- engine level: lane widths vs the one-lane serial configuration ----------

namespace
{

std::vector<GenomeEvalResult>
evaluateEngine(const neat::NeatConfig &cfg,
               const std::vector<neat::Genome> &genomes, int threads,
               bool batch, int waveLanes = 0)
{
    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = threads;
    ecfg.episodes = 1;
    ecfg.batchEpisodes = batch;
    ecfg.heterogeneousLanes = batch;
    ecfg.waveLanes = waveLanes;
    EvalEngine engine(ecfg);
    return engine.evaluateGeneration(handlesOf(genomes), cfg,
                                     EvalEngine::perGenomeSeeds(83));
}

void
expectResultsIdentical(const std::vector<GenomeEvalResult> &a,
                       const std::vector<GenomeEvalResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < b.size(); ++i) {
        EXPECT_EQ(a[i].genomeKey, b[i].genomeKey);
        expectDetailIdentical(a[i].detail, b[i].detail);
    }
}

} // namespace

TEST(WaveSchedulerTest, EngineWavePathMatchesSerialAcrossThreads)
{
    for (const bool feed_forward : {true, false}) {
        const auto [cfg, genomes] = makeGenomes(26, 73, feed_forward);
        const auto reference =
            evaluateEngine(cfg, genomes, 1, /*batch=*/false);

        for (int threads : {1, 8}) {
            for (int lanes : {0, 3, 16}) {
                SCOPED_TRACE(std::string(feed_forward ? "ff" : "rec") +
                             " threads " + std::to_string(threads) +
                             " waveLanes " + std::to_string(lanes));
                expectResultsIdentical(
                    evaluateEngine(cfg, genomes, threads, /*batch=*/true,
                                   lanes),
                    reference);
            }
        }
    }
}

TEST(WaveSchedulerTest, OccupancyCountersObservableAndHigh)
{
    // A batch large enough to keep every refill queue full: measured
    // lane occupancy must be high (the whole point of the scheduler)
    // and the counters must be populated.
    const auto [cfg, genomes] = makeGenomes(96, 79);

    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = 2;
    ecfg.episodes = 1;
    ecfg.waveLanes = 8;
    EvalEngine engine(ecfg);
    ASSERT_TRUE(engine.usesHeterogeneousWaves());
    EXPECT_EQ(engine.config().waveLanes, 8);

    engine.evaluateGeneration(handlesOf(genomes), cfg,
                              EvalEngine::sharedEpisodeSeeds(3));
    const BatchStats &stats = engine.lastBatchStats();
    EXPECT_EQ(stats.laneCount, 8);
    EXPECT_GT(stats.waveSupersteps, 0);
    EXPECT_GT(stats.waveRefills, 0);
    EXPECT_EQ(stats.waveLaneSlotSteps,
              stats.waveSupersteps * 8);
    EXPECT_GT(stats.laneOccupancy(), 0.75);
    EXPECT_LE(stats.laneOccupancy(), 1.0);

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
        handlesOf(genomes), cfg, EvalEngine::sharedEpisodeSeeds(3));
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
    // At episodes > 1 a shard holds one genome's episodes (episode
    // lanes are covered by test_episode_batch); episodes == 1 sizes
    // shards by waveLanes.
    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = 1;
    ecfg.episodes = 3;
    ecfg.batchEpisodes = true;
    ecfg.heterogeneousLanes = true;
    ecfg.waveLanes = 16;
    EXPECT_FALSE(EvalEngine(ecfg).usesHeterogeneousWaves());

    // The default lane width is 2.
    EvalEngineConfig wcfg = ecfg;
    wcfg.episodes = 1;
    wcfg.waveLanes = 0;
    EvalEngine wave_engine(wcfg);
    EXPECT_TRUE(wave_engine.usesHeterogeneousWaves());
    EXPECT_EQ(wave_engine.config().waveLanes, 2);
}

// --- claim order: skewed batches through the shared genome queue ------------

namespace
{

/** The serial oracle: each genome's plan run one episode at a time. */
env::EvalDetail
serialDetail(const neat::NeatConfig &cfg, const neat::Genome &genome,
             int key, int episodes, const EvalEngine::SeedFn &seedFor)
{
    const auto plan = nn::CompiledPlan::compileFor(genome, cfg);
    std::vector<uint64_t> seeds;
    for (int e = 0; e < episodes; ++e)
        seeds.push_back(seedFor(key, e));
    auto env = env::makeEnvironment("CartPole_v0");
    env::EpisodeRunner runner(*env, seeds.front(), episodes);
    return runner.evaluateDetailed(plan, seeds);
}

/**
 * A skewed CartPole batch: a few hand-set balancing controllers, whose
 * episodes all run to the 200-step limit, spread among many
 * mutation-grown genomes whose episodes all end within a few steps.
 * Whoever claims a balancer holds its lanes ~20x longer than a short
 * genome, so a static split would gate the generation on that worker.
 */
std::pair<neat::NeatConfig, std::vector<neat::Genome>>
makeSkewedGenomes(bool feed_forward, const EvalEngine::SeedFn &seedFor)
{
    auto [cfg, pool] = makeGenomes(200, 97, feed_forward);
    std::vector<neat::Genome> shorts;
    for (size_t i = 0; i < pool.size() && shorts.size() < 40; ++i) {
        if (serialDetail(cfg, pool[i], static_cast<int>(i), 3, seedFor)
                .maxEpisodeSteps <= 12)
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
                 serialDetail(cfg, g, static_cast<int>(batch.size()), 3,
                              seedFor)
                     .episodes)
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
    const auto seedFor = EvalEngine::perGenomeSeeds(41);
    for (const bool feed_forward : {true, false}) {
        const auto [cfg, genomes] = makeSkewedGenomes(feed_forward, seedFor);
        // Generation 2 keeps every other genome (same key, so its plan
        // carries over) and replaces the rest under fresh keys.
        std::vector<neat::GenomeHandle> gen1 = handlesOf(genomes);
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
            std::vector<std::vector<env::EvalDetail>> oracle(2);
            for (int gen = 0; gen < 2; ++gen) {
                for (const auto &h : gen == 0 ? gen1 : gen2)
                    oracle[static_cast<size_t>(gen)].push_back(
                        serialDetail(cfg, *h.genome, h.key, episodes,
                                     seedFor));
            }
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
                        const auto results = engine.evaluateGeneration(
                            handles, cfg, seedFor);
                        const auto &expect =
                            oracle[static_cast<size_t>(gen)];
                        ASSERT_EQ(results.size(), expect.size());
                        long inferences = 0;
                        long lockstep = 0;
                        for (size_t i = 0; i < expect.size(); ++i) {
                            EXPECT_EQ(results[i].genomeKey, handles[i].key);
                            expectDetailIdentical(results[i].detail,
                                                  expect[i]);
                            inferences += expect[i].inferences;
                            lockstep += expect[i].maxEpisodeSteps;
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
                        EXPECT_EQ(engine.planCache().racesDiscarded(), 0);

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

// --- system level: whole-run RunSummary digests ------------------------------

namespace
{

std::pair<core::RunSummary, std::vector<core::GenerationReport>>
runSystem(int threads, bool batch, bool feed_forward)
{
    core::SystemConfig cfg;
    cfg.envName = "CartPole_v0";
    cfg.maxGenerations = 4;
    cfg.episodesPerEval = 1;
    cfg.seed = 29;
    cfg.numThreads = threads;
    cfg.batchEpisodes = batch;
    cfg.heterogeneousLanes = batch;
    if (!feed_forward)
        cfg.tweakNeat = [](neat::NeatConfig &ncfg) {
            ncfg.feedForward = false;
        };
    core::System sys(cfg);
    auto summary = sys.run();
    return {summary, sys.reports()};
}

void
expectRunsIdentical(
    const std::pair<core::RunSummary,
                    std::vector<core::GenerationReport>> &run,
    const std::pair<core::RunSummary,
                    std::vector<core::GenerationReport>> &ref)
{
    const auto &[s, r] = run;
    const auto &[s_ref, r_ref] = ref;
    EXPECT_EQ(s.solved, s_ref.solved);
    EXPECT_EQ(s.generations, s_ref.generations);
    EXPECT_EQ(s.bestFitness, s_ref.bestFitness);
    EXPECT_EQ(s.totalEvolutionEnergyJ, s_ref.totalEvolutionEnergyJ);
    EXPECT_EQ(s.totalInferenceEnergyJ, s_ref.totalInferenceEnergyJ);
    EXPECT_EQ(s.totalEvolutionSeconds, s_ref.totalEvolutionSeconds);
    EXPECT_EQ(s.totalInferenceSeconds, s_ref.totalInferenceSeconds);
    ASSERT_EQ(r.size(), r_ref.size());
    for (size_t i = 0; i < r_ref.size(); ++i) {
        EXPECT_EQ(r[i].algo.bestFitness, r_ref[i].algo.bestFitness);
        EXPECT_EQ(r[i].algo.meanFitness, r_ref[i].algo.meanFitness);
        EXPECT_EQ(r[i].inferenceSteps, r_ref[i].inferenceSteps);
        EXPECT_EQ(r[i].maxEpisodeSteps, r_ref[i].maxEpisodeSteps);
        EXPECT_EQ(r[i].macsPerStep, r_ref[i].macsPerStep);
        EXPECT_EQ(r[i].hw.eve.cycles, r_ref[i].hw.eve.cycles);
        EXPECT_EQ(r[i].hw.adam.cycles, r_ref[i].hw.adam.cycles);
        // Every configuration measures its lane occupancy and
        // surfaces it in the generation reports.
        EXPECT_GT(r[i].batches.waveLaneSlotSteps, 0);
        EXPECT_GT(r_ref[i].batches.waveLaneSlotSteps, 0);
    }
}

} // namespace

TEST(WaveSchedulerTest, SystemDigestsIdenticalAcrossChunkings)
{
    // E = 1 compares multi-lane shards with one-lane serial shards;
    // E > 1 episode lanes are covered by test_episode_batch.
    for (const bool feed_forward : {true, false}) {
        const auto ref = runSystem(1, /*batch=*/false, feed_forward);
        for (int threads : {1, 8}) {
            SCOPED_TRACE(std::string(feed_forward ? "ff" : "rec") +
                         " threads " + std::to_string(threads));
            expectRunsIdentical(
                runSystem(threads, /*batch=*/true, feed_forward), ref);
        }
    }
}
