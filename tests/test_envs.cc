/**
 * @file
 * Tests for the environment substrate: interface conformance for all
 * Table I environments plus per-environment physics/semantics checks.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "env/acrobot.hh"
#include "env/atari_ram.hh"
#include "env/bipedal.hh"
#include "env/cartpole.hh"
#include "env/lunar_lander.hh"
#include "env/mountain_car.hh"
#include "env/runner.hh"

using namespace genesys;
using namespace genesys::env;

namespace
{

/** A random but deterministic policy for interface tests. */
Action
randomAction(const ActionSpace &space, XorWow &rng)
{
    Action a;
    if (space.kind == ActionSpace::Kind::Discrete) {
        a.discrete = static_cast<int>(
            rng.uniformInt(static_cast<uint32_t>(space.n)));
    } else {
        for (int i = 0; i < space.n; ++i)
            a.continuous.push_back(rng.uniform(space.low, space.high));
    }
    return a;
}

} // namespace

/** Interface conformance across the whole Table I suite. */
class EnvSuite : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EnvSuite, ObservationSizeMatchesReset)
{
    auto env = makeEnvironment(GetParam());
    const auto obs = env->reset(1);
    EXPECT_EQ(obs.size(), static_cast<size_t>(env->observationSize()));
}

TEST_P(EnvSuite, StepsProduceConsistentObservations)
{
    auto env = makeEnvironment(GetParam());
    XorWow rng(2);
    env->reset(7);
    const auto space = env->actionSpace();
    for (int i = 0; i < 20; ++i) {
        const auto r = env->step(randomAction(space, rng));
        EXPECT_EQ(r.observation.size(),
                  static_cast<size_t>(env->observationSize()));
        for (double v : r.observation)
            EXPECT_TRUE(std::isfinite(v));
        EXPECT_TRUE(std::isfinite(r.reward));
        if (r.done)
            break;
    }
}

TEST_P(EnvSuite, DeterministicGivenSeed)
{
    auto a = makeEnvironment(GetParam());
    auto b = makeEnvironment(GetParam());
    XorWow ra(5), rb(5);
    const auto oa = a->reset(99);
    const auto ob = b->reset(99);
    EXPECT_EQ(oa, ob);
    for (int i = 0; i < 30; ++i) {
        const auto act_a = randomAction(a->actionSpace(), ra);
        const auto act_b = randomAction(b->actionSpace(), rb);
        const auto sa = a->step(act_a);
        const auto sb = b->step(act_b);
        EXPECT_EQ(sa.observation, sb.observation) << "step " << i;
        EXPECT_DOUBLE_EQ(sa.reward, sb.reward);
        EXPECT_EQ(sa.done, sb.done);
        if (sa.done)
            break;
    }
}

TEST_P(EnvSuite, EpisodeTerminatesWithinMaxSteps)
{
    auto env = makeEnvironment(GetParam());
    XorWow rng(8);
    env->reset(3);
    bool done = false;
    int steps = 0;
    while (!done && steps <= env->maxSteps() + 1) {
        done = env->step(randomAction(env->actionSpace(), rng)).done;
        ++steps;
    }
    EXPECT_TRUE(done);
    EXPECT_LE(steps, env->maxSteps());
}

TEST_P(EnvSuite, FitnessIsFiniteAndTargetPositive)
{
    auto env = makeEnvironment(GetParam());
    XorWow rng(9);
    env->reset(4);
    bool done = false;
    while (!done)
        done = env->step(randomAction(env->actionSpace(), rng)).done;
    EXPECT_TRUE(std::isfinite(env->episodeFitness()));
    EXPECT_GT(env->targetFitness(), 0.0);
}

TEST_P(EnvSuite, RecommendedOutputsAreDecodable)
{
    auto env = makeEnvironment(GetParam());
    const auto space = env->actionSpace();
    std::vector<double> outputs(
        static_cast<size_t>(env->recommendedOutputs()), 0.6);
    const auto a = decodeAction(space, outputs);
    if (space.kind == ActionSpace::Kind::Discrete) {
        EXPECT_GE(a.discrete, 0);
        EXPECT_LT(a.discrete, space.n);
    } else {
        EXPECT_EQ(a.continuous.size(), static_cast<size_t>(space.n));
    }
}

INSTANTIATE_TEST_SUITE_P(TableI, EnvSuite,
                         ::testing::ValuesIn(environmentNames()));

// --- the contract the episode loop relies on --------------------------------
// env::evaluateWave refills a lane by calling reset(seed) on an instance
// that has already run other episodes, and expects the episode to be a
// pure function of the seed and the actions. These tests pin that
// contract for every environment, driving episodes the way the loop
// does: network-shaped outputs through decodeAction.

namespace
{

/** Everything observable about one (possibly truncated) episode. */
struct Trajectory
{
    std::vector<std::vector<double>> observations;
    std::vector<double> rewards;
    bool done = false;
    int steps = 0;
    double cumulativeReward = 0.0;
    double fitness = 0.0;
};

/**
 * Run up to `maxSteps` steps of the episode `seed` on `env`, with
 * outputs drawn from a stream seeded by `policySeed`. Every
 * observation must be finite and `observationSize()` wide.
 */
Trajectory
runContractEpisode(Environment &env, uint64_t seed, uint64_t policySeed,
                   int maxSteps = 200)
{
    const auto space = env.actionSpace();
    const auto width = static_cast<size_t>(env.observationSize());
    XorWow policy(policySeed);
    std::vector<double> outputs(
        static_cast<size_t>(env.recommendedOutputs()));

    Trajectory t;
    t.observations.push_back(env.reset(seed));
    while (!t.done && t.steps < maxSteps) {
        for (double &o : outputs)
            o = policy.uniform(-1.0, 1.0);
        StepResult sr = env.step(decodeAction(space, outputs));
        t.observations.push_back(std::move(sr.observation));
        t.rewards.push_back(sr.reward);
        t.done = sr.done;
        ++t.steps;
    }
    for (size_t i = 0; i < t.observations.size(); ++i) {
        EXPECT_EQ(t.observations[i].size(), width) << "observation " << i;
        for (double v : t.observations[i])
            EXPECT_TRUE(std::isfinite(v)) << "observation " << i;
    }
    t.cumulativeReward = env.cumulativeReward();
    t.fitness = env.episodeFitness();
    EXPECT_EQ(env.stepsTaken(), t.steps);
    return t;
}

void
expectSameTrajectory(const Trajectory &a, const Trajectory &b)
{
    EXPECT_EQ(a.observations, b.observations);
    EXPECT_EQ(a.rewards, b.rewards);
    EXPECT_EQ(a.done, b.done);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.cumulativeReward, b.cumulativeReward);
    EXPECT_EQ(a.fitness, b.fitness);
}

} // namespace

class EnvContract : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EnvContract, ResetIsPure)
{
    // A used instance — one finished episode, then one abandoned
    // mid-way — must replay an episode exactly as a fresh one does.
    auto fresh = makeEnvironment(GetParam());
    const Trajectory expect = runContractEpisode(*fresh, 5, 50);

    auto used = makeEnvironment(GetParam());
    runContractEpisode(*used, 11, 51);
    runContractEpisode(*used, 12, 52, /*maxSteps=*/7);
    expectSameTrajectory(runContractEpisode(*used, 5, 50), expect);
}

TEST_P(EnvContract, SameSeedSameTrajectory)
{
    auto a = makeEnvironment(GetParam());
    auto b = makeEnvironment(GetParam());
    for (uint64_t seed : {1u, 2u, 977u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectSameTrajectory(runContractEpisode(*a, seed, seed + 3),
                             runContractEpisode(*b, seed, seed + 3));
    }
}

TEST_P(EnvContract, ObservationsFiniteAndSized)
{
    // runContractEpisode checks every observation; cover several
    // seeds and policies so more of the state space is visited.
    auto env = makeEnvironment(GetParam());
    for (uint64_t seed = 20; seed < 25; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Trajectory t = runContractEpisode(*env, seed, seed * 7);
        EXPECT_GT(t.steps, 0);
        EXPECT_TRUE(std::isfinite(t.fitness));
    }
}

INSTANTIATE_TEST_SUITE_P(TableI, EnvContract,
                         ::testing::ValuesIn(environmentNames()));

// --- per-environment physics ------------------------------------------------

TEST(CartPoleTest, BalancedPoleEarnsRewardEveryStep)
{
    CartPole env;
    env.reset(1);
    const auto r = env.step({1, {}});
    EXPECT_DOUBLE_EQ(r.reward, 1.0);
    EXPECT_DOUBLE_EQ(env.cumulativeReward(), 1.0);
}

TEST(CartPoleTest, ConstantPushTipsThePole)
{
    CartPole env;
    env.reset(2);
    bool done = false;
    int steps = 0;
    while (!done) {
        done = env.step({1, {}}).done; // always push right
        ++steps;
    }
    EXPECT_LT(steps, 200); // fails well before the step cap
}

TEST(CartPoleTest, TableISpaces)
{
    CartPole env;
    EXPECT_EQ(env.observationSize(), 4);
    EXPECT_EQ(env.actionSpace().n, 2);
    EXPECT_EQ(env.recommendedOutputs(), 1); // "one binary value"
}

TEST(MountainCarTest, IdlePolicyNeverReachesGoal)
{
    MountainCar env;
    env.reset(3);
    bool done = false;
    while (!done)
        done = env.step({1, {}}).done; // no throttle
    EXPECT_FALSE(env.reachedGoal());
    EXPECT_LT(env.episodeFitness(), 1.0);
}

TEST(MountainCarTest, OscillationPolicyReachesGoal)
{
    MountainCar env;
    auto obs = env.reset(4);
    bool done = false;
    while (!done) {
        // Push in the direction of motion (the classic solution).
        const int a = obs[1] >= 0.0 ? 2 : 0;
        auto r = env.step({a, {}});
        obs = r.observation;
        done = r.done;
    }
    EXPECT_TRUE(env.reachedGoal());
    EXPECT_GE(env.episodeFitness(), 1.0);
}

TEST(MountainCarTest, PositionStaysInBounds)
{
    MountainCar env;
    auto obs = env.reset(5);
    XorWow rng(6);
    for (int i = 0; i < 200; ++i) {
        auto r = env.step(
            {static_cast<int>(rng.uniformInt(3u)), {}});
        EXPECT_GE(r.observation[0], -1.2);
        EXPECT_LE(r.observation[0], 0.6);
        EXPECT_LE(std::fabs(r.observation[1]), 0.07);
        if (r.done)
            break;
    }
}

TEST(AcrobotTest, ObservationIsTrigEncoded)
{
    Acrobot env;
    const auto obs = env.reset(7);
    ASSERT_EQ(obs.size(), 6u);
    // cos^2 + sin^2 == 1 for both links.
    EXPECT_NEAR(obs[0] * obs[0] + obs[1] * obs[1], 1.0, 1e-9);
    EXPECT_NEAR(obs[2] * obs[2] + obs[3] * obs[3], 1.0, 1e-9);
}

TEST(AcrobotTest, PumpedTorqueRaisesTip)
{
    Acrobot env;
    auto obs = env.reset(8);
    double first_fitness = 0.0;
    bool done = false;
    int i = 0;
    while (!done) {
        // Bang-bang pumping in phase with the first link velocity.
        const double torque = obs[4] >= 0 ? 1.0 : -1.0;
        auto r = env.step({0, {torque}});
        obs = r.observation;
        done = r.done;
        if (++i == 1)
            first_fitness = env.episodeFitness();
    }
    EXPECT_GT(env.episodeFitness(), first_fitness);
}

TEST(LunarLanderTest, FreeFallCrashes)
{
    LunarLander env;
    env.reset(9);
    bool done = false;
    while (!done)
        done = env.step({0, {}}).done; // never fire -> crash
    EXPECT_TRUE(env.crashed());
    EXPECT_FALSE(env.landed());
}

TEST(LunarLanderTest, MainEngineSlowsDescent)
{
    LunarLander a, b;
    a.reset(10);
    b.reset(10);
    for (int i = 0; i < 10; ++i) {
        a.step({0, {}}); // coast
        b.step({2, {}}); // main engine
    }
    // vy observation index 3: thrusting must leave a higher (less
    // negative) vertical velocity.
    const double coast_vy = a.cumulativeReward();
    (void)coast_vy;
    // Compare the actual state via a fresh step's observation.
    const auto oa = a.step({0, {}}).observation;
    const auto ob = b.step({0, {}}).observation;
    EXPECT_GT(ob[3], oa[3]);
}

TEST(LunarLanderTest, SimpleControllerLandsEventually)
{
    // The gym demo heuristic (target-angle tracking + descent-rate
    // hover control): NEAT must have a reachable success mode to
    // evolve toward.
    auto controller = [](const std::vector<double> &obs) {
        const double x = obs[0], y = obs[1], vx = obs[2], vy = obs[3];
        const double ang = obs[4], vang = obs[5];
        const bool legs = obs[6] > 0.5 || obs[7] > 0.5;
        const double angle_targ =
            std::clamp(0.5 * x + 1.0 * vx, -0.4, 0.4);
        double angle_todo = (angle_targ - ang) * 0.5 - vang * 0.5;
        double hover_todo = (0.3 * y - y) * 0.5 - vy * 0.5;
        if (legs) {
            angle_todo = 0.0;
            hover_todo = -vy * 0.5;
        }
        if (hover_todo > std::fabs(angle_todo) && hover_todo > 0.12)
            return 2;
        if (angle_todo < -0.06)
            return 3;
        if (angle_todo > 0.06)
            return 1;
        return 0;
    };
    int landings = 0;
    for (uint64_t seed = 0; seed < 8; ++seed) {
        LunarLander env;
        auto obs = env.reset(seed);
        bool done = false;
        while (!done) {
            auto r = env.step({controller(obs), {}});
            obs = r.observation;
            done = r.done;
        }
        if (env.landed())
            ++landings;
    }
    EXPECT_GE(landings, 6);
}

TEST(BipedalTest, ObservationLayout)
{
    BipedalWalker env;
    const auto obs = env.reset(11);
    ASSERT_EQ(obs.size(), 24u);
    // Lidar ranges (last 10) are positive and bounded.
    for (size_t i = 14; i < 24; ++i) {
        EXPECT_GT(obs[i], 0.0);
        EXPECT_LE(obs[i], 2.5);
    }
}

TEST(BipedalTest, SymmetricGaitMovesForward)
{
    BipedalWalker env;
    env.reset(12);
    bool done = false;
    int i = 0;
    while (!done && i < 400) {
        // Crude alternating gait.
        const double phase = std::sin(i * 0.15);
        done = env.step({0, {phase, -0.3, -phase, -0.3}}).done;
        ++i;
    }
    EXPECT_GT(env.hullX(), 0.1);
}

TEST(AtariRamTest, RamIs128Bytes)
{
    AtariRam env(AtariVariant::Alien);
    const auto obs = env.reset(13);
    EXPECT_EQ(obs.size(), 128u);
    for (double v : obs) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
    }
}

TEST(AtariRamTest, ActionSetSizesMatchGym)
{
    EXPECT_EQ(AtariRam(AtariVariant::AirRaid).actionSpace().n, 6);
    EXPECT_EQ(AtariRam(AtariVariant::Alien).actionSpace().n, 18);
    EXPECT_EQ(AtariRam(AtariVariant::Amidar).actionSpace().n, 10);
    EXPECT_EQ(AtariRam(AtariVariant::Asterix).actionSpace().n, 9);
}

TEST(AtariRamTest, ScoreVisibleInRam)
{
    AtariRam env(AtariVariant::Amidar);
    env.reset(14);
    XorWow rng(15);
    bool done = false;
    while (!done && env.score() == 0) {
        done = env.step({static_cast<int>(rng.uniformInt(10u)), {}})
                   .done;
    }
    if (env.score() > 0) {
        const long ram_score = env.ram()[60] + 256L * env.ram()[61];
        EXPECT_EQ(ram_score, env.score());
    }
}

TEST(AtariRamTest, VariantsProduceDifferentDynamics)
{
    AtariRam a(AtariVariant::AirRaid), b(AtariVariant::Asterix);
    const auto oa = a.reset(16);
    const auto ob = b.reset(16);
    EXPECT_NE(oa, ob); // variant-keyed streams diverge even same seed
}

TEST(AtariRamTest, PelletPickupScores)
{
    AtariRam env(AtariVariant::Alien);
    env.reset(17);
    XorWow rng(18);
    long best = 0;
    for (int trial = 0; trial < 5 && best == 0; ++trial) {
        env.reset(17 + static_cast<uint64_t>(trial));
        bool done = false;
        while (!done) {
            done =
                env.step({static_cast<int>(rng.uniformInt(18u)), {}})
                    .done;
        }
        best = std::max(best, env.score());
    }
    EXPECT_GT(best, 0); // random play stumbles into pellets
}

TEST(AtariRamTest, FitnessNormalizedToTarget)
{
    AtariRam env(AtariVariant::Asterix);
    env.reset(19);
    EXPECT_LT(env.episodeFitness(), 0.05);
}
