#include "env/runner.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/logging.hh"
#include "obs/tracer.hh"

#include "env/acrobot.hh"
#include "env/atari_ram.hh"
#include "env/bipedal.hh"
#include "env/cartpole.hh"
#include "env/lunar_lander.hh"
#include "env/mountain_car.hh"

namespace genesys::env
{

namespace
{

/**
 * The episode loop, parameterized over the policy: `act(obs)` returns
 * the network outputs for one observation (by value for the
 * interpreter, by reference into the scratch for compiled plans).
 */
template <typename ActFn>
EpisodeResult
runEpisodeWith(Environment &env, uint64_t seed, long macs_per_step,
               ActFn &&act)
{
    EpisodeResult result;
    const ActionSpace space = env.actionSpace();

    std::vector<double> obs = env.reset(seed);
    bool done = false;
    while (!done) {
        const std::vector<double> &outputs = act(obs);
        const Action action = decodeAction(space, outputs);
        StepResult sr = env.step(action);
        obs = std::move(sr.observation);
        done = sr.done;
    }
    result.cumulativeReward = env.cumulativeReward();
    result.fitness = env.episodeFitness();
    result.steps = env.stepsTaken();
    result.inferences = result.steps; // one forward pass per step
    result.macs = macs_per_step * result.inferences;
    return result;
}

} // namespace

EpisodeResult
EpisodeRunner::runEpisode(const nn::FeedForwardNetwork &net, uint64_t seed)
{
    return runEpisodeWith(
        *env_, seed, net.macsPerInference(),
        [&net](const std::vector<double> &obs) {
            return net.activate(obs);
        });
}

EpisodeResult
EpisodeRunner::runEpisode(nn::RecurrentNetwork &net, uint64_t seed)
{
    net.reset(); // episodes never share recurrent state
    return runEpisodeWith(
        *env_, seed, net.macsPerInference(),
        [&net](const std::vector<double> &obs) {
            return net.activate(obs);
        });
}

EpisodeResult
EpisodeRunner::runEpisode(const nn::CompiledPlan &plan,
                          nn::PlanScratch &scratch, uint64_t seed)
{
    plan.reset(scratch); // clears recurrent state; no-op feed-forward
    return runEpisodeWith(
        *env_, seed, plan.macsPerInference(),
        [&plan, &scratch](const std::vector<double> &obs)
            -> const std::vector<double> & {
            plan.activate(obs, scratch);
            return scratch.outputs;
        });
}

double
EpisodeRunner::evaluate(const neat::Genome &genome,
                        const neat::NeatConfig &cfg)
{
    double total = 0.0;
    auto accumulate = [&](auto &&episode) {
        for (int e = 0; e < episodes_; ++e)
            total += episode(deriveSeed(baseSeed_,
                                        static_cast<uint64_t>(e)))
                         .fitness;
    };
    if (cfg.feedForward) {
        const auto net = nn::FeedForwardNetwork::create(genome, cfg);
        accumulate([&](uint64_t s) { return runEpisode(net, s); });
    } else {
        auto net = nn::RecurrentNetwork::create(genome, cfg);
        accumulate([&](uint64_t s) { return runEpisode(net, s); });
    }
    return total / static_cast<double>(episodes_);
}

namespace
{

/** Accumulate an EvalDetail: `episode(seed)` runs one episode. */
template <typename EpisodeFn>
EvalDetail
evaluateDetailedWith(const std::vector<uint64_t> &episodeSeeds,
                     EpisodeFn &&episode)
{
    GENESYS_ASSERT(!episodeSeeds.empty(),
                   "evaluateDetailed needs at least one episode seed");
    EvalDetail detail;
    detail.episodes.reserve(episodeSeeds.size());
    double total = 0.0;
    for (uint64_t seed : episodeSeeds) {
        EpisodeResult res = episode(seed);
        total += res.fitness;
        detail.inferences += res.inferences;
        detail.macs += res.macs;
        detail.maxEpisodeSteps =
            std::max(detail.maxEpisodeSteps, res.steps);
        detail.episodes.push_back(std::move(res));
    }
    detail.fitness = total / static_cast<double>(episodeSeeds.size());
    return detail;
}

} // namespace

EvalDetail
EpisodeRunner::evaluateDetailed(const neat::Genome &genome,
                                const neat::NeatConfig &cfg,
                                const std::vector<uint64_t> &episodeSeeds)
{
    if (!cfg.feedForward) {
        auto net = nn::RecurrentNetwork::create(genome, cfg);
        return evaluateDetailedWith(episodeSeeds, [&](uint64_t seed) {
            return runEpisode(net, seed);
        });
    }
    const auto net = nn::FeedForwardNetwork::create(genome, cfg);
    return evaluateDetailedWith(episodeSeeds, [&](uint64_t seed) {
        return runEpisode(net, seed);
    });
}

EvalDetail
EpisodeRunner::evaluateDetailed(const nn::CompiledPlan &plan,
                                const std::vector<uint64_t> &episodeSeeds)
{
    nn::PlanScratch scratch; // warmed once, reused by every episode
    return evaluateDetailedWith(episodeSeeds, [&](uint64_t seed) {
        return runEpisode(plan, scratch, seed);
    });
}

double
WaveStats::occupancy() const
{
    return laneSlotSteps > 0 ? static_cast<double>(activeLaneSteps) /
                                   static_cast<double>(laneSlotSteps)
                             : 0.0;
}

WaveResult
evaluateWave(const std::vector<WaveItem> &items,
             const std::vector<Environment *> &lanes,
             WaveScratch &scratch)
{
    GENESYS_ASSERT(!lanes.empty(),
                   "evaluateWave needs at least one environment lane");
    WaveResult out;
    out.episodes.resize(items.size());
    if (items.empty())
        return out;
    for (const WaveItem &it : items)
        GENESYS_ASSERT(it.plan != nullptr,
                       "evaluateWave item carries no compiled plan");

    const ActionSpace space = lanes.front()->actionSpace();
    const size_t num_lanes = lanes.size();
    const size_t W = std::min(num_lanes, items.size());

    scratch.net.resize(num_lanes);
    scratch.obs.resize(num_lanes);
    scratch.item.assign(num_lanes, -1);
    scratch.executed.assign(num_lanes, 0);

    // Bind item `next` to lane `l`: reset the lane's recurrent state
    // and its environment. The lane first activates on the *next*
    // superstep — exactly when a freshly filled PE would join the BSP
    // lockstep.
    size_t next = 0;
    auto fillLane = [&](size_t l) {
        const WaveItem &it = items[next];
        scratch.item[l] = static_cast<int>(next);
        ++next;
        it.plan->reset(scratch.net[l]);
        scratch.obs[l] = lanes[l]->reset(it.seed);
    };
    for (size_t l = 0; l < W; ++l)
        fillLane(l);

    size_t live = W;
    while (live > 0) {
        ++out.stats.supersteps;
        out.stats.laneSlotSteps += static_cast<long>(num_lanes);
        out.stats.activeLaneSteps += static_cast<long>(live);

        // --- forward pass: every live lane's plan on its observation.
        // Live lanes sharing a feed-forward plan execute as one
        // grouped activateBatch (gathered in lane order, so callers
        // that sort items by plan get contiguous CSR accumulation
        // across the group); recurrent lanes keep their cross-tick
        // state in the per-lane scratch and dispatch individually.
        std::fill(scratch.executed.begin(), scratch.executed.end(),
                  uint8_t{0});
        for (size_t l = 0; l < W; ++l) {
            if (scratch.item[l] < 0 || scratch.executed[l])
                continue;
            const nn::CompiledPlan &plan =
                *items[static_cast<size_t>(scratch.item[l])].plan;
            GENESYS_ASSERT(scratch.obs[l].size() == plan.numInputs(),
                           "observation size "
                               << scratch.obs[l].size()
                               << " != plan inputs "
                               << plan.numInputs());
            scratch.groupLanes.clear();
            scratch.groupLanes.push_back(static_cast<int>(l));
            if (!plan.isRecurrent()) {
                for (size_t m = l + 1; m < W; ++m) {
                    if (scratch.item[m] >= 0 && !scratch.executed[m] &&
                        items[static_cast<size_t>(scratch.item[m])]
                                .plan == &plan)
                        scratch.groupLanes.push_back(
                            static_cast<int>(m));
                }
            }

            if (scratch.groupLanes.size() == 1) {
                // activate() forwards recurrent plans to the tick
                // dispatch itself.
                plan.activate(scratch.obs[l], scratch.net[l]);
                scratch.executed[l] = 1;
                continue;
            }

            const int G = static_cast<int>(scratch.groupLanes.size());
            const size_t Gz = static_cast<size_t>(G);
            plan.beginBatch(G, scratch.groupNet);
            const int num_inputs = static_cast<int>(plan.numInputs());
            const int num_outputs =
                static_cast<int>(plan.numOutputs());
            for (int g = 0; g < G; ++g) {
                const size_t lane =
                    static_cast<size_t>(scratch.groupLanes
                                            [static_cast<size_t>(g)]);
                // Same panic every other eval path raises when an
                // environment misreports its observation size —
                // non-lead group members included, so the gather
                // below never reads out of bounds.
                GENESYS_ASSERT(scratch.obs[lane].size() ==
                                   plan.numInputs(),
                               "observation size "
                                   << scratch.obs[lane].size()
                                   << " != plan inputs "
                                   << plan.numInputs());
                for (int i = 0; i < num_inputs; ++i)
                    scratch.groupNet
                        .inputs[static_cast<size_t>(i) * Gz +
                                static_cast<size_t>(g)] =
                        scratch.obs[lane][static_cast<size_t>(i)];
            }
            scratch.groupActive.assign(Gz, 1);
            plan.activateBatch(G, scratch.groupActive.data(),
                               scratch.groupNet);
            out.stats.groupedLaneActivations += G;
            // Scatter each lane's output column into its per-lane
            // scratch so the environment-step phase below reads one
            // uniform location regardless of dispatch shape.
            for (int g = 0; g < G; ++g) {
                const size_t lane =
                    static_cast<size_t>(scratch.groupLanes
                                            [static_cast<size_t>(g)]);
                scratch.net[lane].outputs.resize(
                    static_cast<size_t>(num_outputs));
                for (int o = 0; o < num_outputs; ++o)
                    scratch.net[lane]
                        .outputs[static_cast<size_t>(o)] =
                        scratch.groupNet
                            .outputs[static_cast<size_t>(o) * Gz +
                                     static_cast<size_t>(g)];
                scratch.executed[lane] = 1;
            }
        }

        // --- environment step: each live lane advances its own
        // episode, in lane order. A terminating lane records its
        // result and is refilled from the pending queue (or parked
        // when the queue is dry).
        for (size_t l = 0; l < W; ++l) {
            if (scratch.item[l] < 0)
                continue;
            const size_t idx = static_cast<size_t>(scratch.item[l]);
            GENESYS_DCHECK_RANGE(idx, size_t{0}, items.size(),
                                 "evaluateWave: lane bound to an item"
                                 " index outside the wave");
            GENESYS_DCHECK(scratch.executed[l],
                           "evaluateWave: lane " << l << " reached the"
                           " environment-step phase without a forward"
                           " pass this superstep");
            StepResult sr = lanes[l]->step(
                decodeAction(space, scratch.net[l].outputs));
            scratch.obs[l] = std::move(sr.observation);
            if (!sr.done)
                continue;
            EpisodeResult &res = out.episodes[idx];
            res.cumulativeReward = lanes[l]->cumulativeReward();
            res.fitness = lanes[l]->episodeFitness();
            res.steps = lanes[l]->stepsTaken();
            res.inferences = res.steps; // one pass per step
            res.macs =
                items[idx].plan->macsPerInference() * res.inferences;
            if (next < items.size()) {
                fillLane(l);
                ++out.stats.refills;
                // Timeline marker: a lane turned over mid-wave — the
                // scheduler event that keeps occupancy near 1.
                obs::traceInstant("wave.refill", "wave");
            } else {
                scratch.item[l] = -1;
                --live;
            }
        }
    }
    return out;
}

neat::NeatConfig
configForEnvironment(const Environment &env)
{
    neat::NeatConfig cfg;
    cfg.numInputs = env.observationSize();
    cfg.numOutputs = env.recommendedOutputs();
    cfg.populationSize = 150; // paper's population size
    cfg.fitnessThreshold = env.targetFitness();
    cfg.initialConnection = neat::InitialConnection::FullDirect;
    // Match the paper's setup: simple initial topology with all
    // input-output connections present but zero-weighted
    // (Section III-B: "fully-connected but the weight on each
    // connection is set to zero").
    cfg.weight.initMean = 0.0;
    cfg.weight.initStdev = 0.0;
    return cfg;
}

std::unique_ptr<Environment>
makeEnvironment(const std::string &name)
{
    if (name == "CartPole_v0")
        return std::make_unique<CartPole>();
    if (name == "MountainCar_v0")
        return std::make_unique<MountainCar>();
    if (name == "Acrobot")
        return std::make_unique<Acrobot>();
    if (name == "LunarLander_v2")
        return std::make_unique<LunarLander>();
    if (name == "Bipedal")
        return std::make_unique<BipedalWalker>();
    if (name == "AirRaid-ram-v0")
        return std::make_unique<AtariRam>(AtariVariant::AirRaid);
    if (name == "Alien-ram-v0")
        return std::make_unique<AtariRam>(AtariVariant::Alien);
    if (name == "Amidar-ram-v0")
        return std::make_unique<AtariRam>(AtariVariant::Amidar);
    if (name == "Asterix-ram-v0")
        return std::make_unique<AtariRam>(AtariVariant::Asterix);
    fatal("unknown environment: " + name);
}

std::vector<std::string>
environmentNames()
{
    return {
        "CartPole_v0",    "MountainCar_v0", "Acrobot",
        "LunarLander_v2", "Bipedal",        "AirRaid-ram-v0",
        "Alien-ram-v0",   "Amidar-ram-v0",  "Asterix-ram-v0",
    };
}

} // namespace genesys::env
