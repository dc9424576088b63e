#include "env/env.hh"

#include <algorithm>

#include "common/logging.hh"

namespace genesys::env
{

std::vector<double>
Environment::reset(uint64_t seed)
{
    std::vector<double> obs(static_cast<size_t>(observationSize()));
    resetInto(seed, obs);
    return obs;
}

StepResult
Environment::step(const Action &action)
{
    StepResult r;
    r.observation.resize(static_cast<size_t>(observationSize()));
    const StepOutcome out = stepInto(action, r.observation);
    r.reward = out.reward;
    r.done = out.done;
    return r;
}

void
Environment::stepLanes(std::span<Environment *const> lanes,
                       std::span<const Action> actions,
                       std::span<std::vector<double>> obs,
                       std::span<const uint8_t> live,
                       std::span<StepOutcome> out)
{
    checkLaneBatch(lanes, actions, obs, live, out);
    for (size_t l = 0; l < lanes.size(); ++l) {
        if (live[l])
            out[l] = lanes[l]->stepInto(actions[l], obs[l]);
    }
}

void
Environment::checkLaneBatch(std::span<Environment *const> lanes,
                            std::span<const Action> actions,
                            std::span<std::vector<double>> obs,
                            std::span<const uint8_t> live,
                            std::span<StepOutcome> out)
{
    const size_t n = lanes.size();
    GENESYS_ASSERT(actions.size() == n && obs.size() == n &&
                       live.size() == n && out.size() == n,
                   "stepLanes over " << n << " lanes got " << actions.size()
                                     << " actions, " << obs.size()
                                     << " observations, " << live.size()
                                     << " live flags and " << out.size()
                                     << " outcomes");
}

void
Environment::checkObservationSpan(std::span<const double> obs) const
{
    GENESYS_ASSERT(obs.size() == static_cast<size_t>(observationSize()),
                   name() << " writes " << observationSize()
                          << " observation values, buffer holds "
                          << obs.size());
}

Action
decodeAction(const ActionSpace &space, const std::vector<double> &outputs)
{
    Action a;
    decodeActionInto(space, outputs, a);
    return a;
}

void
decodeActionInto(const ActionSpace &space, std::span<const double> outputs,
                 Action &a)
{
    GENESYS_ASSERT(!outputs.empty(), "cannot decode empty output vector");
    a.discrete = 0;
    a.continuous.clear();
    if (space.kind == ActionSpace::Kind::Discrete) {
        if (space.n == 2 && outputs.size() == 1) {
            a.discrete = outputs[0] > 0.5 ? 1 : 0;
            return;
        }
        GENESYS_ASSERT(outputs.size() >= static_cast<size_t>(space.n),
                       "need " << space.n << " outputs, got "
                               << outputs.size());
        int best = 0;
        for (int i = 1; i < space.n; ++i) {
            if (outputs[static_cast<size_t>(i)] >
                outputs[static_cast<size_t>(best)]) {
                best = i;
            }
        }
        a.discrete = best;
    } else {
        GENESYS_ASSERT(outputs.size() >= static_cast<size_t>(space.n),
                       "need " << space.n << " outputs, got "
                               << outputs.size());
        a.continuous.reserve(static_cast<size_t>(space.n));
        for (int i = 0; i < space.n; ++i) {
            // Map a [0,1]-ish output onto [low, high]; values already
            // outside [0,1] (e.g. tanh outputs) are clamped after the
            // affine map from [0,1].
            const double v = outputs[static_cast<size_t>(i)];
            const double mapped = space.low + (space.high - space.low) * v;
            a.continuous.push_back(
                std::clamp(mapped, space.low, space.high));
        }
    }
}

} // namespace genesys::env
