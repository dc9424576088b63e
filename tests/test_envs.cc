/**
 * @file
 * Tests for the environment substrate: interface conformance for all
 * Table I environments plus per-environment physics/semantics checks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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

TEST_P(EnvContract, StepAfterDoneFailsLoudly)
{
    // Every environment's step limit ends the episode, so running to
    // maxSteps() always reaches `done`. Stepping past it — or before
    // the first reset — is a caller bug and must throw, not return a
    // stale observation.
    auto env = makeEnvironment(GetParam());
    const std::vector<double> outputs(
        static_cast<size_t>(env->recommendedOutputs()), 0.5);
    const Action action = decodeAction(env->actionSpace(), outputs);
    EXPECT_THROW(env->step(action), std::logic_error) << "before reset";

    const Trajectory t =
        runContractEpisode(*env, 3, 30, env->maxSteps());
    ASSERT_TRUE(t.done);
    EXPECT_THROW(env->step(action), std::logic_error) << "after done";
    EXPECT_THROW(env->step(action), std::logic_error) << "still done";

    env->reset(3);
    EXPECT_NO_THROW(env->step(action)) << "reset starts a new episode";
}

TEST_P(EnvContract, SpanFormsMatchVectorAdapters)
{
    // resetInto/stepInto write exactly observationSize() finite values
    // into the caller's buffer — guard cells on both sides stay
    // untouched, and a NaN prefill shows any cell left unwritten —
    // and every observation, reward and done flag equals what the
    // vector adapters reset/step return for the same episode.
    auto spans = makeEnvironment(GetParam());
    auto vectors = makeEnvironment(GetParam());
    const auto space = spans->actionSpace();
    const auto width = static_cast<size_t>(spans->observationSize());
    const double guard = -12345.5;
    const double unwritten = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> buffer(width + 2);
    const std::span<double> obs(buffer.data() + 1, width);

    auto expectWritten = [&](const std::vector<double> &want,
                             const std::string &what) {
        EXPECT_EQ(buffer.front(), guard) << what;
        EXPECT_EQ(buffer.back(), guard) << what;
        ASSERT_EQ(want.size(), width) << what;
        for (size_t i = 0; i < width; ++i) {
            EXPECT_TRUE(std::isfinite(obs[i])) << what << " value " << i;
            EXPECT_EQ(std::bit_cast<uint64_t>(obs[i]),
                      std::bit_cast<uint64_t>(want[i]))
                << what << " value " << i;
        }
    };
    auto prefill = [&] {
        std::fill(buffer.begin(), buffer.end(), unwritten);
        buffer.front() = guard;
        buffer.back() = guard;
    };

    XorWow policy(41);
    std::vector<double> outputs(
        static_cast<size_t>(spans->recommendedOutputs()));
    Action action;
    for (uint64_t seed : {6u, 7u}) {
        prefill();
        spans->resetInto(seed, obs);
        expectWritten(vectors->reset(seed), "reset " + std::to_string(seed));
        bool done = false;
        for (int step = 0; !done && step < 200; ++step) {
            for (double &o : outputs)
                o = policy.uniform(-1.0, 1.0);
            decodeActionInto(space, outputs, action);
            prefill();
            const StepOutcome got = spans->stepInto(action, obs);
            const StepResult want = vectors->step(action);
            expectWritten(want.observation,
                          "step " + std::to_string(step));
            EXPECT_EQ(std::bit_cast<uint64_t>(got.reward),
                      std::bit_cast<uint64_t>(want.reward));
            EXPECT_EQ(got.done, want.done);
            done = got.done;
        }
    }

    // A buffer of the wrong size is a caller bug and fails loudly.
    std::vector<double> narrow(width - 1);
    EXPECT_THROW(spans->resetInto(1, narrow), std::logic_error);
}

TEST_P(EnvContract, LaneStepMatchesStepInto)
{
    // stepLanes over 1..5 lanes equals a per-lane stepInto twin bit for
    // bit. The AtariRam variants run the interleaved override, every
    // other environment the default. Lane l joins l supersteps late,
    // abandons its episode after 3 + 4l steps (or ends it earlier) and
    // then idles for 1 + l % 3 supersteps before its next episode, so
    // the batches mix idle lanes, odd live counts and episodes that end
    // at different supersteps. An idle lane's observation and outcome
    // must stay untouched.
    const double guard = -777.25;
    auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
    for (size_t num_lanes = 1; num_lanes <= 5; ++num_lanes) {
        SCOPED_TRACE(std::to_string(num_lanes) + " lanes");
        std::vector<std::unique_ptr<Environment>> batch, twins;
        std::vector<Environment *> lanes;
        for (size_t l = 0; l < num_lanes; ++l) {
            batch.push_back(makeEnvironment(GetParam()));
            twins.push_back(makeEnvironment(GetParam()));
            lanes.push_back(batch.back().get());
        }
        const auto space = lanes.front()->actionSpace();
        const auto width =
            static_cast<size_t>(lanes.front()->observationSize());
        std::vector<double> outputs(
            static_cast<size_t>(lanes.front()->recommendedOutputs()));
        std::vector<Action> actions(num_lanes);
        std::vector<std::vector<double>> obs(num_lanes,
                                             std::vector<double>(width));
        std::vector<std::vector<double>> twin_obs = obs;
        std::vector<uint8_t> live(num_lanes, 0);
        std::vector<StepOutcome> out(num_lanes);
        std::vector<int> steps(num_lanes, 0), join_at(num_lanes);
        std::vector<uint64_t> episodes(num_lanes, 0);
        std::vector<XorWow> policy;
        for (size_t l = 0; l < num_lanes; ++l) {
            join_at[l] = static_cast<int>(l);
            policy.emplace_back(100 + l);
        }
        int idle_steps = 0;
        for (int t = 0; t < 80; ++t) {
            for (size_t l = 0; l < num_lanes; ++l) {
                if (live[l] || t < join_at[l])
                    continue;
                const uint64_t seed =
                    1000 * num_lanes + 10 * l + episodes[l]++;
                batch[l]->resetInto(seed, obs[l]);
                twins[l]->resetInto(seed, twin_obs[l]);
                live[l] = 1;
                steps[l] = 0;
            }
            for (size_t l = 0; l < num_lanes; ++l) {
                if (live[l]) {
                    for (double &o : outputs)
                        o = policy[l].uniform(-1.0, 1.0);
                    decodeActionInto(space, outputs, actions[l]);
                } else {
                    std::fill(obs[l].begin(), obs[l].end(), guard);
                    out[l] = {guard, true};
                    ++idle_steps;
                }
            }
            lanes.front()->stepLanes(lanes, actions, obs, live, out);
            for (size_t l = 0; l < num_lanes; ++l) {
                const std::string at = "superstep " + std::to_string(t) +
                                       " lane " + std::to_string(l);
                if (!live[l]) {
                    for (double v : obs[l])
                        ASSERT_EQ(v, guard) << at << ": idle lane written";
                    EXPECT_EQ(out[l].reward, guard) << at;
                    EXPECT_TRUE(out[l].done) << at;
                    continue;
                }
                const StepOutcome want =
                    twins[l]->stepInto(actions[l], twin_obs[l]);
                for (size_t i = 0; i < width; ++i) {
                    ASSERT_EQ(bits(obs[l][i]), bits(twin_obs[l][i]))
                        << at << " value " << i;
                }
                const Environment &got = *batch[l], &twin = *twins[l];
                EXPECT_EQ(bits(out[l].reward), bits(want.reward)) << at;
                EXPECT_EQ(out[l].done, want.done) << at;
                EXPECT_EQ(bits(got.cumulativeReward()),
                          bits(twin.cumulativeReward()))
                    << at;
                EXPECT_EQ(got.stepsTaken(), twin.stepsTaken()) << at;
                EXPECT_EQ(bits(got.episodeFitness()),
                          bits(twin.episodeFitness()))
                    << at;
                if (want.done || ++steps[l] == 3 + 4 * static_cast<int>(l)) {
                    live[l] = 0;
                    join_at[l] = t + 2 + static_cast<int>(l % 3);
                }
            }
        }
        EXPECT_GT(idle_steps, 0);
        // Spans of different lengths are a caller bug.
        EXPECT_THROW(lanes.front()->stepLanes(
                         lanes, actions, obs, live,
                         std::span(out).first(num_lanes - 1)),
                     std::logic_error);
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
    // The observation is the only copy of the RAM: byte b reads back
    // exactly as lround(obs * 255).
    for (int b = 0; b < 256; ++b)
        ASSERT_EQ(std::lround(b / 255.0 * 255.0), b);
    AtariRam env(AtariVariant::Amidar);
    std::vector<double> obs = env.reset(14);
    XorWow rng(15);
    bool done = false;
    while (!done && env.score() == 0) {
        auto r = env.step({static_cast<int>(rng.uniformInt(10u)), {}});
        done = r.done;
        obs = std::move(r.observation);
    }
    if (env.score() > 0) {
        const long ram_score = std::lround(obs[60] * 255.0) +
                               256L * std::lround(obs[61] * 255.0);
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

namespace
{

/**
 * One replay of the pinned episodes: fixed seeds played by a seeded
 * random policy, four episodes deep, folding the bit patterns of
 * every observation and reward into an FNV-1a digest, so any change
 * to the RAM layout or its derived bytes changes the digest.
 */
class PinnedReplay
{
  public:
    explicit PinnedReplay(AtariVariant variant) : env(variant) {}

    AtariRam env;
    uint64_t digest = 0xCBF29CE484222325ULL;

    /** Reset `obs` into the next episode; false once all are played. */
    bool
    nextEpisode(std::vector<double> &obs)
    {
        if (episode_ == 4)
            return false;
        env.resetInto(31 + episode_++, obs);
        for (double v : obs)
            mix(v);
        return true;
    }

    Action
    nextAction()
    {
        const auto n = static_cast<uint32_t>(env.actionSpace().n);
        return {static_cast<int>(policy_.uniformInt(n)), {}};
    }

    /** Fold one step's observation and reward. */
    void
    fold(const std::vector<double> &obs, const StepOutcome &out)
    {
        for (double v : obs)
            mix(v);
        mix(out.reward);
    }

  private:
    void
    mix(double v)
    {
        uint64_t bits = std::bit_cast<uint64_t>(v);
        for (int b = 0; b < 8; ++b, bits >>= 8) {
            digest ^= bits & 0xFF;
            digest *= 0x100000001B3ULL;
        }
    }

    XorWow policy_{23};
    uint64_t episode_ = 0;
};

/** The pinned episodes' digest, stepped through stepInto. */
uint64_t
atariTrajectoryDigest(AtariVariant variant)
{
    PinnedReplay replay(variant);
    std::vector<double> obs(128);
    while (replay.nextEpisode(obs)) {
        StepOutcome out;
        do {
            out = replay.env.stepInto(replay.nextAction(), obs);
            replay.fold(obs, out);
        } while (!out.done);
    }
    return replay.digest;
}

/**
 * The pinned episodes replayed on `numLanes` lanes at once through
 * stepLanes, lane l joining l supersteps late so each batch pairs
 * lanes at different points of the trajectory. Returns each lane's
 * digest.
 */
std::vector<uint64_t>
atariLaneTrajectoryDigests(AtariVariant variant, size_t numLanes)
{
    std::vector<std::unique_ptr<PinnedReplay>> replays;
    std::vector<Environment *> lanes;
    for (size_t l = 0; l < numLanes; ++l) {
        replays.push_back(std::make_unique<PinnedReplay>(variant));
        lanes.push_back(&replays.back()->env);
    }
    std::vector<Action> actions(numLanes);
    std::vector<std::vector<double>> obs(numLanes,
                                         std::vector<double>(128));
    std::vector<uint8_t> live(numLanes, 0);
    std::vector<uint8_t> played(numLanes, 0);
    std::vector<StepOutcome> out(numLanes);
    size_t finished = 0;
    for (size_t t = 0; finished < numLanes; ++t) {
        for (size_t l = 0; l < numLanes && l <= t; ++l) {
            if (live[l] || played[l])
                continue;
            if (replays[l]->nextEpisode(obs[l])) {
                live[l] = 1;
            } else {
                played[l] = 1;
                ++finished;
            }
        }
        for (size_t l = 0; l < numLanes; ++l) {
            if (live[l])
                actions[l] = replays[l]->nextAction();
        }
        lanes.front()->stepLanes(lanes, actions, obs, live, out);
        for (size_t l = 0; l < numLanes; ++l) {
            if (!live[l])
                continue;
            replays[l]->fold(obs[l], out[l]);
            live[l] = out[l].done ? 0 : 1;
        }
    }
    std::vector<uint64_t> digests;
    for (const auto &replay : replays)
        digests.push_back(replay->digest);
    return digests;
}

/**
 * Pins every byte the four variants expose, the derived bytes 64..127
 * included, so a rewrite of the RAM hash must reproduce the old
 * observations exactly.
 */
constexpr std::pair<AtariVariant, uint64_t> kPinnedTrajectories[] = {
    {AtariVariant::AirRaid, 0x5913c07c484435b7ULL},
    {AtariVariant::Alien, 0x49f4a2b1a065e324ULL},
    {AtariVariant::Amidar, 0x1dfa7df1183331b1ULL},
    {AtariVariant::Asterix, 0x97e73874a42c43c3ULL},
};

} // namespace

TEST(AtariRamTest, ObservationTrajectoriesArePinned)
{
    for (const auto &[variant, digest] : kPinnedTrajectories) {
        EXPECT_EQ(atariTrajectoryDigest(variant), digest)
            << atariVariantName(variant) << " digest 0x" << std::hex
            << atariTrajectoryDigest(variant);
    }
}

TEST(AtariRamTest, LaneStepsReplayPinnedTrajectories)
{
    // The same episodes through the interleaved stepLanes: one lane
    // (the odd lane out), a pair, and a pair plus a remainder.
    for (const auto &[variant, digest] : kPinnedTrajectories) {
        for (size_t num_lanes : {1u, 2u, 3u}) {
            const std::vector<uint64_t> got =
                atariLaneTrajectoryDigests(variant, num_lanes);
            for (size_t l = 0; l < got.size(); ++l) {
                EXPECT_EQ(got[l], digest)
                    << atariVariantName(variant) << ", " << num_lanes
                    << " lanes, lane " << l << " digest 0x" << std::hex
                    << got[l];
            }
        }
    }
}
