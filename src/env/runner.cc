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

    std::vector<double> obs(static_cast<size_t>(env.observationSize()));
    Action action;
    env.resetInto(seed, obs);
    bool done = false;
    while (!done) {
        const std::vector<double> &outputs = act(obs);
        decodeActionInto(space, outputs, action);
        done = env.stepInto(action, obs).done;
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

WaveStats
evaluateWave(WaveSource &source, const std::vector<Environment *> &lanes,
             WaveScratch &scratch, std::span<EpisodeResult> results)
{
    GENESYS_ASSERT(!lanes.empty(),
                   "evaluateWave needs at least one environment lane");
    const size_t group = static_cast<size_t>(source.groupSize());
    GENESYS_ASSERT(group >= 1, "evaluateWave source claims groups of "
                                   << group << " items");
    WaveStats stats;
    const ActionSpace space = lanes.front()->actionSpace();
    const size_t num_lanes = lanes.size();
    // Idle lanes a claim waits for: a whole group where it fits, so a
    // genome's episodes start side by side and dispatch as one group.
    const size_t claim_at = std::min(group, num_lanes);

    scratch.net.resize(num_lanes);
    scratch.obs.resize(num_lanes);
    for (size_t l = 0; l < num_lanes; ++l)
        scratch.obs[l].resize(
            static_cast<size_t>(lanes[l]->observationSize()));
    scratch.action.resize(num_lanes);
    scratch.lane.assign(num_lanes, WaveItem{});
    scratch.executed.assign(num_lanes, 0);
    scratch.claimed.resize(group);

    // Bind idle lanes, lowest first, to the claimed group's remaining
    // items, claiming the next group once this one is used up and
    // enough lanes are idle. Binding resets the lane's recurrent state
    // and its environment; the lane first activates on the *next*
    // superstep — exactly when a freshly filled PE would join the BSP
    // lockstep.
    size_t next_claimed = group; // the claimed group is used up
    bool dry = false;
    size_t live = 0;
    auto fill = [&](bool refill) {
        size_t l = 0;
        while (live < num_lanes && !dry) {
            if (next_claimed == group) {
                if (num_lanes - live < claim_at)
                    return;
                if (!source.claim(scratch.claimed)) {
                    dry = true;
                    return;
                }
                next_claimed = 0;
            }
            const WaveItem &it = scratch.claimed[next_claimed++];
            GENESYS_ASSERT(it.plan != nullptr,
                           "evaluateWave item carries no compiled plan");
            GENESYS_ASSERT(it.slot < results.size(),
                           "evaluateWave item slot " << it.slot
                               << " outside " << results.size()
                               << " results");
            while (scratch.lane[l].plan != nullptr)
                ++l;
            scratch.lane[l] = it;
            it.plan->reset(scratch.net[l]);
            lanes[l]->resetInto(it.seed, scratch.obs[l]);
            ++live;
            if (refill) {
                ++stats.refills;
                // Timeline marker: a lane turned over mid-wave — the
                // scheduler event that keeps occupancy near 1.
                obs::traceInstant("wave.refill", "wave");
            }
        }
    };
    fill(false);

    while (live > 0) {
        ++stats.supersteps;
        stats.laneSlotSteps += static_cast<long>(num_lanes);
        stats.activeLaneSteps += static_cast<long>(live);

        // --- forward pass: every live lane's plan on its observation.
        // Live lanes sharing a feed-forward plan execute as one
        // grouped activateBatch (gathered in lane order, so a claimed
        // group's lanes get contiguous CSR accumulation); recurrent
        // lanes keep their cross-tick state in the per-lane scratch and
        // dispatch individually.
        std::fill(scratch.executed.begin(), scratch.executed.end(),
                  uint8_t{0});
        for (size_t l = 0; l < num_lanes; ++l) {
            if (scratch.lane[l].plan == nullptr || scratch.executed[l])
                continue;
            const nn::CompiledPlan &plan = *scratch.lane[l].plan;
            GENESYS_ASSERT(scratch.obs[l].size() == plan.numInputs(),
                           "observation size "
                               << scratch.obs[l].size()
                               << " != plan inputs "
                               << plan.numInputs());
            scratch.groupLanes.clear();
            scratch.groupLanes.push_back(static_cast<int>(l));
            if (!plan.isRecurrent()) {
                for (size_t m = l + 1; m < num_lanes; ++m) {
                    if (scratch.lane[m].plan == &plan &&
                        !scratch.executed[m])
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
            stats.groupedLaneActivations += G;
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
        // result and is refilled in place (or parked when no claim
        // fits). A lane bound earlier in this loop has not run its
        // forward pass yet; it joins on the next superstep.
        for (size_t l = 0; l < num_lanes; ++l) {
            if (scratch.lane[l].plan == nullptr || !scratch.executed[l])
                continue;
            const WaveItem &it = scratch.lane[l];
            decodeActionInto(space, scratch.net[l].outputs,
                             scratch.action[l]);
            if (!lanes[l]->stepInto(scratch.action[l], scratch.obs[l])
                     .done)
                continue;
            EpisodeResult &res = results[it.slot];
            res.cumulativeReward = lanes[l]->cumulativeReward();
            res.fitness = lanes[l]->episodeFitness();
            res.steps = lanes[l]->stepsTaken();
            res.inferences = res.steps; // one pass per step
            res.macs = it.plan->macsPerInference() * res.inferences;
            scratch.lane[l] = WaveItem{};
            --live;
            fill(true);
        }
    }
    return stats;
}

namespace
{

/** A fixed item list, one item per claim, each into its own slot. */
class ItemListSource final : public WaveSource
{
  public:
    explicit ItemListSource(const std::vector<WaveItem> &items)
        : items_(items)
    {
    }

    int groupSize() const override { return 1; }

    bool claim(std::span<WaveItem> group) override
    {
        if (next_ == items_.size())
            return false;
        group[0] = items_[next_];
        group[0].slot = next_++;
        return true;
    }

  private:
    const std::vector<WaveItem> &items_;
    size_t next_ = 0;
};

} // namespace

WaveResult
evaluateWave(const std::vector<WaveItem> &items,
             const std::vector<Environment *> &lanes,
             WaveScratch &scratch)
{
    WaveResult out;
    out.episodes.resize(items.size());
    ItemListSource source(items);
    out.stats = evaluateWave(source, lanes, scratch, out.episodes);
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
