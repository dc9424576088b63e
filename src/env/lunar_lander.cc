#include "env/lunar_lander.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace genesys::env
{

const std::string &
LunarLander::name() const
{
    static const std::string n = "LunarLander_v2";
    return n;
}

void
LunarLander::resetInto(uint64_t seed, std::span<double> obs)
{
    checkObservationSpan(obs);
    XorWow rng(seed);
    x_ = rng.uniform(-0.4, 0.4);
    y_ = 1.0;
    vx_ = rng.uniform(-0.3, 0.3);
    vy_ = rng.uniform(-0.2, 0.0);
    angle_ = rng.uniform(-0.15, 0.15);
    vAngle_ = rng.uniform(-0.1, 0.1);
    legLeft_ = legRight_ = false;
    landed_ = crashed_ = false;
    done_ = false;
    restSteps_ = 0;
    resetBookkeeping();
    prevShaping_ = shaping();
    observe(obs);
}

void
LunarLander::observe(std::span<double> obs) const
{
    // Gym layout: x, y, vx, vy, angle, angular velocity, leg
    // contacts.
    obs[0] = x_;
    obs[1] = y_;
    obs[2] = vx_;
    obs[3] = vy_;
    obs[4] = angle_;
    obs[5] = vAngle_;
    obs[6] = legLeft_ ? 1.0 : 0.0;
    obs[7] = legRight_ ? 1.0 : 0.0;
}

double
LunarLander::shaping() const
{
    // Gym's potential function (scaled for our unit world).
    return -100.0 * std::sqrt(x_ * x_ + y_ * y_) -
           100.0 * std::sqrt(vx_ * vx_ + vy_ * vy_) -
           100.0 * std::fabs(angle_) + 10.0 * (legLeft_ ? 1.0 : 0.0) +
           10.0 * (legRight_ ? 1.0 : 0.0);
}

StepOutcome
LunarLander::stepInto(const Action &action, std::span<double> obs)
{
    GENESYS_ASSERT(!done_, "step() after episode end");
    checkObservationSpan(obs);
    GENESYS_ASSERT(action.discrete >= 0 && action.discrete < 4,
                   "invalid LunarLander action " << action.discrete);

    double fuel_cost = 0.0;
    double ax = 0.0;
    double ay = gravity_;
    double aAngle = -angularDamping_ * vAngle_;

    switch (action.discrete) {
      case 0:
        break;
      case 2: // main engine: thrust along the body's up axis
        ax += -std::sin(angle_) * mainAccel_;
        ay += std::cos(angle_) * mainAccel_;
        fuel_cost = 0.30;
        break;
      case 1: // left engine: push right, rotate counter-clockwise
        ax += std::cos(angle_) * sideAccel_;
        ay += std::sin(angle_) * sideAccel_;
        aAngle += sideTorque_;
        fuel_cost = 0.03;
        break;
      case 3: // right engine: push left, rotate clockwise
        ax += -std::cos(angle_) * sideAccel_;
        ay += -std::sin(angle_) * sideAccel_;
        aAngle -= sideTorque_;
        fuel_cost = 0.03;
        break;
    }

    vx_ += ax * dt_;
    vy_ += ay * dt_;
    vAngle_ += aAngle * dt_;
    x_ += vx_ * dt_;
    y_ += vy_ * dt_;
    angle_ += vAngle_ * dt_;

    // Leg contact: feet below ground level while the hull is near it.
    const double leg_left_y =
        y_ - std::cos(angle_) * 0.1 + std::sin(angle_) * legSpan_;
    const double leg_right_y =
        y_ - std::cos(angle_) * 0.1 - std::sin(angle_) * legSpan_;
    legLeft_ = leg_left_y <= 0.0;
    legRight_ = leg_right_y <= 0.0;

    double reward = 0.0;
    const double new_shaping = shaping();
    reward += new_shaping - prevShaping_;
    prevShaping_ = new_shaping;
    reward -= fuel_cost;

    if (y_ <= 0.0) {
        const double speed = std::sqrt(vx_ * vx_ + vy_ * vy_);
        const bool on_pad = std::fabs(x_) <= padHalfWidth_;
        const bool gentle = speed < crashSpeed_ &&
                            std::fabs(angle_) < crashAngle_ &&
                            legLeft_ && legRight_;
        if (gentle) {
            // Settle: require a couple of steps at rest like the gym
            // "awake" check. Coming to rest anywhere scores +100 (gym
            // semantics); the pad matters through the shaping term.
            y_ = 0.0;
            vx_ *= 0.5;
            vy_ = 0.0;
            vAngle_ *= 0.5;
            if (++restSteps_ >= 3) {
                landed_ = true;
                reward += on_pad ? 100.0 : 60.0;
            }
        } else {
            crashed_ = true;
            reward -= 100.0;
        }
    } else {
        restSteps_ = 0;
    }
    if (std::fabs(x_) > worldLimit_ || y_ > worldLimit_) {
        crashed_ = true;
        reward -= 100.0;
    }

    accumulate(reward);
    done_ = landed_ || crashed_ || stepsTaken_ >= maxSteps();

    StepOutcome r;
    observe(obs);
    r.reward = reward;
    r.done = done_;
    return r;
}

double
LunarLander::episodeFitness() const
{
    // Map cumulative reward onto [0, ~1.5]: gym considers +200
    // solved; our initial shaping starts around -120.
    return std::max(0.0, (cumulativeReward_ + 200.0) / 400.0);
}

} // namespace genesys::env
