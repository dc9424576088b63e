/**
 * @file
 * Bit-identity tests for per-genome episode batching: one genome's
 * E > 1 episodes run side by side as same-plan lanes of
 * env::evaluateWave (batchEpisodes) against the serial episode loop,
 * at the kernel, engine and whole-System levels, for feed-forward and
 * recurrent genomes, across lane widths and thread counts. "Identical"
 * always means bit-identical — episode batching is a pure throughput
 * lever and must never perturb a result.
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

// --- kernel level: same-plan waves vs the serial episode loop ----------------

TEST(EpisodeBatchTest, SamePlanWaveMatchesSerialAndInterpreter)
{
    // One genome's episodes as same-plan wave items — what the engine
    // runs on a shard at E > 1. The genome-level
    // interpreter, the serial compiled loop and the wave at every
    // width must agree bit for bit.
    const std::vector<uint64_t> seeds{11, 22, 33, 44, 55, 66, 77, 88,
                                      99, 110};
    for (const bool feed_forward : {true, false}) {
        const auto [cfg, genomes] = makeGenomes(8, 41, feed_forward);
        for (const neat::Genome &g : genomes) {
            SCOPED_TRACE(std::string(feed_forward ? "ff" : "rec") +
                         " genome " + std::to_string(g.key()));
            const auto plan = nn::CompiledPlan::compileFor(g, cfg);
            ASSERT_EQ(plan.isRecurrent(), !feed_forward);

            auto env = env::makeEnvironment("CartPole_v0");
            env::EpisodeRunner runner(*env, seeds.front(),
                                      static_cast<int>(seeds.size()));
            const auto serial = runner.evaluateDetailed(plan, seeds);
            expectDetailIdentical(serial,
                                  runner.evaluateDetailed(g, cfg, seeds));

            std::vector<env::WaveItem> items;
            for (uint64_t seed : seeds)
                items.push_back({&plan, seed});
            for (int width : {1, 2, 5, 8}) {
                SCOPED_TRACE("width " + std::to_string(width));
                std::vector<std::unique_ptr<env::Environment>> owned;
                std::vector<env::Environment *> lanes;
                for (int l = 0; l < width; ++l) {
                    owned.push_back(env::makeEnvironment("CartPole_v0"));
                    lanes.push_back(owned.back().get());
                }
                env::WaveScratch scratch;
                const auto wave =
                    env::evaluateWave(items, lanes, scratch);
                ASSERT_EQ(wave.episodes.size(), seeds.size());
                for (size_t e = 0; e < seeds.size(); ++e)
                    expectEpisodeIdentical(wave.episodes[e],
                                           serial.episodes[e]);
            }
        }
    }
}

// --- engine level: episode lanes vs the one-lane serial loop -----------------

namespace
{

std::vector<GenomeEvalResult>
evaluateEngine(const neat::NeatConfig &cfg,
               const std::vector<neat::Genome> &genomes, int threads,
               bool batch)
{
    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = threads;
    ecfg.episodes = 5;
    ecfg.batchEpisodes = batch;
    EvalEngine engine(ecfg);
    return engine.evaluateGeneration(handlesOf(genomes), cfg,
                                     EvalEngine::perGenomeSeeds(83));
}

} // namespace

TEST(EpisodeBatchTest, EngineEpisodeLanesMatchSerialAcrossThreads)
{
    // E = 5: a claim is one genome, its episodes side by side on five
    // lanes (batchEpisodes) or one after another on one lane.
    for (const bool feed_forward : {true, false}) {
        const auto [cfg, genomes] = makeGenomes(16, 47, feed_forward);
        const auto reference =
            evaluateEngine(cfg, genomes, 1, /*batch=*/false);
        for (int threads : {1, 8}) {
            SCOPED_TRACE(std::string(feed_forward ? "ff" : "rec") +
                         " threads " + std::to_string(threads));
            const auto batched =
                evaluateEngine(cfg, genomes, threads, /*batch=*/true);
            ASSERT_EQ(batched.size(), reference.size());
            for (size_t i = 0; i < reference.size(); ++i) {
                EXPECT_EQ(batched[i].genomeKey, reference[i].genomeKey);
                expectDetailIdentical(batched[i].detail,
                                      reference[i].detail);
            }
        }
    }
}

TEST(EpisodeBatchTest, EnginePoolShardsSizedToEpisodeLanes)
{
    // At episodes > 1 a shard holds one genome's episodes: waveLanes
    // resolves to 1 and each shard holds one lane per episode, or a
    // single lane when batching is off.
    const auto [cfg, genomes] = makeGenomes(2, 89);
    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = 1;
    ecfg.episodes = 3;
    ecfg.heterogeneousLanes = true;
    ecfg.waveLanes = 16;
    for (const bool batch : {true, false}) {
        SCOPED_TRACE(batch ? "batched" : "serial");
        ecfg.batchEpisodes = batch;
        EvalEngine engine(ecfg);
        EXPECT_FALSE(engine.usesHeterogeneousWaves());
        EXPECT_EQ(engine.config().waveLanes, 1);
        engine.evaluateGeneration(handlesOf(genomes), cfg,
                                  EvalEngine::sharedEpisodeSeeds(5));
        EXPECT_EQ(engine.lastBatchStats().laneCount, batch ? 3 : 1);
    }
}

// --- system level: whole-run RunSummary digests ------------------------------

namespace
{

std::pair<core::RunSummary, std::vector<core::GenerationReport>>
runSystem(int threads, bool batchEpisodes, bool feed_forward)
{
    core::SystemConfig cfg;
    cfg.envName = "CartPole_v0";
    cfg.maxGenerations = 4;
    cfg.episodesPerEval = 3;
    cfg.seed = 23;
    cfg.numThreads = threads;
    cfg.batchEpisodes = batchEpisodes;
    if (!feed_forward)
        cfg.tweakNeat = [](neat::NeatConfig &ncfg) {
            ncfg.feedForward = false;
        };
    core::System sys(cfg);
    auto summary = sys.run();
    return {summary, sys.reports()};
}

} // namespace

TEST(EpisodeBatchTest, SystemDigestsIdenticalBatchedVsSerial)
{
    // E = 3: one genome's episodes on three lanes against the same
    // episodes one after another on a single lane.
    for (const bool feed_forward : {true, false}) {
        const auto [s_ref, r_ref] =
            runSystem(1, /*batchEpisodes=*/false, feed_forward);

        for (int threads : {1, 8}) {
            SCOPED_TRACE(std::string(feed_forward ? "ff" : "rec") +
                         " threads " + std::to_string(threads));
            const auto [s, r] =
                runSystem(threads, /*batchEpisodes=*/true, feed_forward);
            EXPECT_EQ(s.solved, s_ref.solved);
            EXPECT_EQ(s.generations, s_ref.generations);
            EXPECT_EQ(s.bestFitness, s_ref.bestFitness);
            EXPECT_EQ(s.totalEvolutionEnergyJ,
                      s_ref.totalEvolutionEnergyJ);
            EXPECT_EQ(s.totalInferenceEnergyJ,
                      s_ref.totalInferenceEnergyJ);
            EXPECT_EQ(s.totalEvolutionSeconds,
                      s_ref.totalEvolutionSeconds);
            EXPECT_EQ(s.totalInferenceSeconds,
                      s_ref.totalInferenceSeconds);
            ASSERT_EQ(r.size(), r_ref.size());
            for (size_t i = 0; i < r_ref.size(); ++i) {
                EXPECT_EQ(r[i].algo.bestFitness,
                          r_ref[i].algo.bestFitness);
                EXPECT_EQ(r[i].algo.meanFitness,
                          r_ref[i].algo.meanFitness);
                EXPECT_EQ(r[i].inferenceSteps, r_ref[i].inferenceSteps);
                EXPECT_EQ(r[i].maxEpisodeSteps,
                          r_ref[i].maxEpisodeSteps);
                EXPECT_EQ(r[i].macsPerStep, r_ref[i].macsPerStep);
                EXPECT_EQ(r[i].hw.eve.cycles, r_ref[i].hw.eve.cycles);
                EXPECT_EQ(r[i].hw.adam.cycles, r_ref[i].hw.adam.cycles);
                EXPECT_GT(r[i].batches.waveLaneSlotSteps, 0);
                EXPECT_GT(r_ref[i].batches.waveLaneSlotSteps, 0);
            }
        }
    }
}
