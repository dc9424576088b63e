#include "env/mountain_car.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace genesys::env
{

const std::string &
MountainCar::name() const
{
    static const std::string n = "MountainCar_v0";
    return n;
}

void
MountainCar::resetInto(uint64_t seed, std::span<double> obs)
{
    checkObservationSpan(obs);
    XorWow rng(seed);
    position_ = rng.uniform(-0.6, -0.4);
    velocity_ = 0.0;
    maxPosition_ = position_;
    reachedGoal_ = false;
    done_ = false;
    resetBookkeeping();
    obs[0] = position_;
    obs[1] = velocity_;
}

StepOutcome
MountainCar::stepInto(const Action &action, std::span<double> obs)
{
    GENESYS_ASSERT(!done_, "step() after episode end");
    checkObservationSpan(obs);
    GENESYS_ASSERT(action.discrete >= 0 && action.discrete < 3,
                   "invalid MountainCar action " << action.discrete);

    velocity_ += (action.discrete - 1) * force_ -
                 std::cos(3.0 * position_) * gravity_;
    velocity_ = std::clamp(velocity_, -maxSpeed_, maxSpeed_);
    position_ += velocity_;
    position_ = std::clamp(position_, minPosition_, maxPositionLimit_);
    if (position_ <= minPosition_ && velocity_ < 0.0)
        velocity_ = 0.0;
    maxPosition_ = std::max(maxPosition_, position_);

    StepOutcome r;
    obs[0] = position_;
    obs[1] = velocity_;
    r.reward = -1.0; // gym's per-step penalty
    accumulate(r.reward);
    reachedGoal_ = position_ >= goalPosition_;
    done_ = reachedGoal_ || stepsTaken_ >= maxSteps();
    r.done = done_;
    return r;
}

double
MountainCar::episodeFitness() const
{
    // Gym's raw reward (-1 per step) carries no gradient for NEAT, so
    // — like the neat-python gym examples — we shape: best progress
    // toward the flag, plus a speed bonus once solved.
    const double progress =
        (maxPosition_ - minPosition_) / (goalPosition_ - minPosition_);
    if (!reachedGoal_)
        return progress * 0.9;
    const double time_bonus =
        static_cast<double>(maxSteps() - stepsTaken_) /
        static_cast<double>(maxSteps());
    return 1.0 + time_bonus;
}

} // namespace genesys::env
