/**
 * @file
 * Tests for action decoding and the serial episode loop.
 */

#include <gtest/gtest.h>

#include "env/cartpole.hh"
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

TEST(EpisodeRunner, DeterministicEvaluation)
{
    CartPole env;
    auto cfg = configForEnvironment(env);
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(1);
    const auto g = neat::Genome::createNew(0, cfg, idx, rng);
    const auto plan = nn::CompiledPlan::compileFor(g, cfg);

    const std::vector<uint64_t> seeds{deriveSeed(42, 0), deriveSeed(42, 1)};
    EXPECT_DOUBLE_EQ(evaluateDetailed(env, plan, seeds).fitness,
                     evaluateDetailed(env, plan, seeds).fitness);
}

TEST(EpisodeRunner, CountsInferencesAndMacs)
{
    CartPole env;
    auto cfg = configForEnvironment(env);
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(2);
    const auto g = neat::Genome::createNew(0, cfg, idx, rng);
    const auto plan = nn::CompiledPlan::compileFor(g, cfg);
    nn::PlanScratch scratch;
    const auto res = runEpisode(env, plan, scratch, 17);
    EXPECT_EQ(res.inferences, res.steps);
    EXPECT_EQ(res.macs, res.steps * plan.macsPerInference());
    EXPECT_GT(res.steps, 0);
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
