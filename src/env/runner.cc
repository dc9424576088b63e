#include "env/runner.hh"

#include <algorithm>
#include <utility>

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

EvalDetail
reduceEpisodes(std::span<const EpisodeResult> episodes)
{
    GENESYS_ASSERT(!episodes.empty(),
                   "reduceEpisodes needs at least one episode");
    EvalDetail detail;
    double total = 0.0;
    for (const EpisodeResult &res : episodes) {
        total += res.fitness;
        detail.inferences += res.inferences;
        detail.macs += res.macs;
        detail.maxEpisodeSteps = std::max(detail.maxEpisodeSteps, res.steps);
    }
    detail.fitness = total / static_cast<double>(episodes.size());
    return detail;
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
    // genome's episodes start side by side and stay in lockstep.
    const size_t claim_at = std::min(group, num_lanes);

    scratch.net.resize(num_lanes);
    scratch.obs.resize(num_lanes);
    for (size_t l = 0; l < num_lanes; ++l)
        scratch.obs[l].resize(
            static_cast<size_t>(lanes[l]->observationSize()));
    scratch.action.resize(num_lanes);
    scratch.lane.assign(num_lanes, WaveItem{});
    scratch.live.assign(num_lanes, 0);
    scratch.outcome.resize(num_lanes);
    scratch.claimed.resize(group);
    const bool together = lanes.front()->stepsLanesTogether();

    // Bind idle lanes, lowest first, to the claimed group's remaining
    // items, claiming the next group once this one is used up and
    // enough lanes are idle. Binding resets the lane's recurrent state
    // and its environment; the lane first activates on the next
    // superstep — exactly when a freshly filled PE would join the BSP
    // lockstep. With no lane freed since the last fill, a fill binds
    // nothing.
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
            scratch.live[l] = 1;
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

    // A terminated lane records its result and goes idle.
    auto retire = [&](size_t l) {
        const WaveItem &it = scratch.lane[l];
        EpisodeResult &res = results[it.slot];
        res.cumulativeReward = lanes[l]->cumulativeReward();
        res.fitness = lanes[l]->episodeFitness();
        res.steps = lanes[l]->stepsTaken();
        res.inferences = res.steps; // one pass per step
        res.macs = it.plan->macsPerInference() * res.inferences;
        scratch.lane[l] = WaveItem{};
        scratch.live[l] = 0;
        --live;
    };

    while (live > 0) {
        ++stats.supersteps;
        stats.laneSlotSteps += static_cast<long>(num_lanes);
        stats.activeLaneSteps += static_cast<long>(live);

        // --- forward pass: every live lane's plan on its observation,
        // each through its own activate() and scratch (recurrent lanes
        // keep their cross-tick state there). activate() panics on an
        // observation of the wrong size.
        for (size_t l = 0; l < num_lanes; ++l) {
            if (const nn::CompiledPlan *plan = scratch.lane[l].plan)
                plan->activate(scratch.obs[l], scratch.net[l]);
        }

        // --- environment step: each live lane advances its own
        // episode and terminating lanes retire, in lane order. Idle
        // lanes are refilled once every lane has stepped, and join on
        // the next superstep. Environments that step lanes together
        // take every live lane's action in one stepLanes() call;
        // the others step each lane as soon as it is decoded.
        if (together) {
            for (size_t l = 0; l < num_lanes; ++l) {
                if (scratch.live[l])
                    decodeActionInto(space, scratch.net[l].outputs,
                                     scratch.action[l]);
            }
            lanes.front()->stepLanes(lanes, scratch.action, scratch.obs,
                                     scratch.live, scratch.outcome);
            for (size_t l = 0; l < num_lanes; ++l) {
                if (scratch.live[l] && scratch.outcome[l].done)
                    retire(l);
            }
        } else {
            for (size_t l = 0; l < num_lanes; ++l) {
                if (!scratch.live[l])
                    continue;
                decodeActionInto(space, scratch.net[l].outputs,
                                 scratch.action[l]);
                if (lanes[l]->stepInto(scratch.action[l], scratch.obs[l])
                        .done)
                    retire(l);
            }
        }
        fill(true);
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
    // Match the paper's setup: simple initial topology with all
    // input-output connections present but zero-weighted
    // (Section III-B: "fully-connected but the weight on each
    // connection is set to zero").
    cfg.weight.initMean = 0.0;
    cfg.weight.initStdev = 0.0;
    return cfg;
}

namespace
{

template <class E, auto... args>
std::unique_ptr<Environment>
construct()
{
    return std::make_unique<E>(args...);
}

/** The Table I environments, in table order, and their factories. */
constexpr std::pair<const char *, std::unique_ptr<Environment> (*)()>
    kEnvironments[] = {
        {"CartPole_v0", construct<CartPole>},
        {"MountainCar_v0", construct<MountainCar>},
        {"Acrobot", construct<Acrobot>},
        {"LunarLander_v2", construct<LunarLander>},
        {"Bipedal", construct<BipedalWalker>},
        {"AirRaid-ram-v0", construct<AtariRam, AtariVariant::AirRaid>},
        {"Alien-ram-v0", construct<AtariRam, AtariVariant::Alien>},
        {"Amidar-ram-v0", construct<AtariRam, AtariVariant::Amidar>},
        {"Asterix-ram-v0", construct<AtariRam, AtariVariant::Asterix>},
};

} // namespace

std::unique_ptr<Environment>
makeEnvironment(const std::string &name)
{
    for (const auto &[known, make] : kEnvironments) {
        if (name == known)
            return make();
    }
    fatal("unknown environment: " + name);
}

std::vector<std::string>
environmentNames()
{
    std::vector<std::string> names;
    for (const auto &entry : kEnvironments)
        names.emplace_back(entry.first);
    return names;
}

} // namespace genesys::env
