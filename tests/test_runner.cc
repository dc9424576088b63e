/**
 * @file
 * Tests for action decoding, the episode-to-fitness reduction, and
 * the library's episode loop on one lane against the oracle's serial
 * loop.
 */

#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>

#include "env/cartpole.hh"
#include "env/expect_eval.hh"
#include "env/mountain_car.hh"
#include "env/runner.hh"

using namespace genesys;
using namespace genesys::env;

TEST(DecodeAction, BinaryThreshold)
{
    const ActionSpace space{ActionSpace::Kind::Discrete, 2, 0, 0};
    EXPECT_EQ(decodeAction(space, {0.4}).discrete, 0);
    EXPECT_EQ(decodeAction(space, {0.6}).discrete, 1);
}

TEST(DecodeAction, ArgmaxOverDiscreteOutputs)
{
    const ActionSpace space{ActionSpace::Kind::Discrete, 4, 0, 0};
    EXPECT_EQ(decodeAction(space, {0.1, 0.9, 0.3, 0.2}).discrete, 1);
    EXPECT_EQ(decodeAction(space, {0.9, 0.1, 0.3, 0.2}).discrete, 0);
    EXPECT_EQ(decodeAction(space, {0.1, 0.2, 0.3, 0.9}).discrete, 3);
}

TEST(DecodeAction, ArgmaxTieBreaksLowestIndex)
{
    const ActionSpace space{ActionSpace::Kind::Discrete, 3, 0, 0};
    EXPECT_EQ(decodeAction(space, {0.5, 0.5, 0.5}).discrete, 0);
}

TEST(DecodeAction, ContinuousAffineMapAndClamp)
{
    const ActionSpace space{ActionSpace::Kind::Continuous, 2, -1.0, 1.0};
    const auto a = decodeAction(space, {0.0, 1.0});
    ASSERT_EQ(a.continuous.size(), 2u);
    EXPECT_DOUBLE_EQ(a.continuous[0], -1.0);
    EXPECT_DOUBLE_EQ(a.continuous[1], 1.0);
    // Outputs beyond [0,1] clamp to bounds.
    const auto b = decodeAction(space, {-3.0, 5.0});
    EXPECT_DOUBLE_EQ(b.continuous[0], -1.0);
    EXPECT_DOUBLE_EQ(b.continuous[1], 1.0);
}

TEST(DecodeAction, MidpointMapsToCenter)
{
    const ActionSpace space{ActionSpace::Kind::Continuous, 1, -2.0, 4.0};
    EXPECT_DOUBLE_EQ(decodeAction(space, {0.5}).continuous[0], 1.0);
}

TEST(DecodeAction, TooFewOutputsThrows)
{
    const ActionSpace space{ActionSpace::Kind::Discrete, 4, 0, 0};
    EXPECT_ANY_THROW(decodeAction(space, {0.1, 0.2}));
}

TEST(ReduceEpisodes, MeanFitnessTotalsAndLongestEpisode)
{
    std::vector<EpisodeResult> episodes(3);
    episodes[0] = {1.0, 0.1, 4, 4, 40};
    episodes[1] = {2.0, 0.2, 9, 9, 90};
    episodes[2] = {3.0, 0.7, 2, 2, 20};
    const EvalDetail d = reduceEpisodes(episodes);
    // Summed in episode order, then divided: (0.1 + 0.2) + 0.7.
    EXPECT_EQ(std::bit_cast<uint64_t>(d.fitness),
              std::bit_cast<uint64_t>(((0.1 + 0.2) + 0.7) / 3.0));
    EXPECT_EQ(d.inferences, 15);
    EXPECT_EQ(d.macs, 150);
    EXPECT_EQ(d.maxEpisodeSteps, 9);
}

TEST(ReduceEpisodes, NoEpisodesPanics)
{
    EXPECT_THROW(reduceEpisodes({}), std::logic_error);
}

namespace
{

/** One CartPole genome's plan, evaluated on the wave loop's one lane. */
struct OneLane
{
    CartPole env;
    neat::NeatConfig cfg = configForEnvironment(env);
    nn::CompiledPlan plan;
    WaveScratch scratch;

    explicit OneLane(uint64_t seed)
    {
        neat::NodeIndexer idx(cfg.numOutputs);
        XorWow rng(seed);
        plan = nn::CompiledPlan::compileFor(
            neat::Genome::createNew(0, cfg, idx, rng), cfg);
    }

    oracle::DetailedEval
    evaluate(const std::vector<uint64_t> &seeds)
    {
        std::vector<WaveItem> items;
        for (uint64_t s : seeds)
            items.push_back({&plan, s});
        auto episodes = evaluateWave(items, {&env}, scratch).episodes;
        return {reduceEpisodes(episodes), std::move(episodes)};
    }
};

} // namespace

TEST(EpisodeRunner, DeterministicEvaluation)
{
    OneLane lane(1);
    const std::vector<uint64_t> seeds{deriveSeed(42, 0), deriveSeed(42, 1)};
    const oracle::DetailedEval a = lane.evaluate(seeds);
    oracle::expectDetailIdentical(lane.evaluate(seeds), a);

    // The same episodes through the oracle's serial loop.
    CartPole serial_env;
    oracle::expectDetailIdentical(
        a, oracle::evaluateDetailed(serial_env, lane.plan, seeds));
}

TEST(EpisodeRunner, CountsInferencesAndMacs)
{
    OneLane lane(2);
    const EpisodeResult res = lane.evaluate({17}).episodes.front();
    EXPECT_EQ(res.inferences, res.steps);
    EXPECT_EQ(res.macs, res.steps * lane.plan.macsPerInference());
    EXPECT_GT(res.steps, 0);

    CartPole serial_env;
    nn::PlanScratch scratch;
    oracle::expectEpisodeIdentical(
        res, oracle::runEpisode(serial_env, lane.plan, scratch, 17));
}

TEST(ConfigForEnvironment, MatchesSpaces)
{
    MountainCar env;
    const auto cfg = configForEnvironment(env);
    EXPECT_EQ(cfg.numInputs, 2);
    EXPECT_EQ(cfg.numOutputs, 3);
    EXPECT_EQ(cfg.populationSize, 150);
    EXPECT_DOUBLE_EQ(cfg.fitnessThreshold, env.targetFitness());
    // Paper setup: initial weights are all zero (Section III-B).
    EXPECT_DOUBLE_EQ(cfg.weight.initMean, 0.0);
    EXPECT_DOUBLE_EQ(cfg.weight.initStdev, 0.0);
}

TEST(MakeEnvironment, UnknownNameThrows)
{
    EXPECT_ANY_THROW(makeEnvironment("Pong-v0"));
}

TEST(MakeEnvironment, AllNamesConstructible)
{
    for (const auto &name : environmentNames()) {
        auto env = makeEnvironment(name);
        EXPECT_EQ(env->name(), name);
    }
}
