#include "env/cartpole.hh"

#include <cmath>

#include "common/logging.hh"

namespace genesys::env
{

const std::string &
CartPole::name() const
{
    static const std::string n = "CartPole_v0";
    return n;
}

void
CartPole::resetInto(uint64_t seed, std::span<double> obs)
{
    checkObservationSpan(obs);
    XorWow rng(seed);
    x_ = rng.uniform(-0.05, 0.05);
    xDot_ = rng.uniform(-0.05, 0.05);
    theta_ = rng.uniform(-0.05, 0.05);
    thetaDot_ = rng.uniform(-0.05, 0.05);
    done_ = false;
    resetBookkeeping();
    observe(obs);
}

void
CartPole::observe(std::span<double> obs) const
{
    obs[0] = x_;
    obs[1] = xDot_;
    obs[2] = theta_;
    obs[3] = thetaDot_;
}

StepOutcome
CartPole::stepInto(const Action &action, std::span<double> obs)
{
    GENESYS_ASSERT(!done_, "step() after episode end");
    checkObservationSpan(obs);

    const double force = action.discrete == 1 ? forceMag_ : -forceMag_;
    const double cos_theta = std::cos(theta_);
    const double sin_theta = std::sin(theta_);

    const double temp =
        (force + poleMassLength_ * thetaDot_ * thetaDot_ * sin_theta) /
        totalMass_;
    const double theta_acc =
        (gravity_ * sin_theta - cos_theta * temp) /
        (length_ *
         (4.0 / 3.0 - massPole_ * cos_theta * cos_theta / totalMass_));
    const double x_acc =
        temp - poleMassLength_ * theta_acc * cos_theta / totalMass_;

    // Semi-implicit... no: gym uses explicit Euler ("euler"
    // kinematics integrator).
    x_ += tau_ * xDot_;
    xDot_ += tau_ * x_acc;
    theta_ += tau_ * thetaDot_;
    thetaDot_ += tau_ * theta_acc;

    StepOutcome r;
    observe(obs);
    const bool failed = x_ < -xThreshold_ || x_ > xThreshold_ ||
                        theta_ < -thetaThreshold_ ||
                        theta_ > thetaThreshold_;
    r.reward = 1.0;
    accumulate(r.reward);
    done_ = failed || stepsTaken_ >= maxSteps();
    r.done = done_;
    return r;
}

} // namespace genesys::env
