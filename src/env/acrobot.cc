#include "env/acrobot.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace genesys::env
{

namespace
{

double
wrapAngle(double a)
{
    while (a > M_PI)
        a -= 2.0 * M_PI;
    while (a < -M_PI)
        a += 2.0 * M_PI;
    return a;
}

} // namespace

const std::string &
Acrobot::name() const
{
    static const std::string n = "Acrobot";
    return n;
}

void
Acrobot::resetInto(uint64_t seed, std::span<double> obs)
{
    checkObservationSpan(obs);
    XorWow rng(seed);
    theta1_ = rng.uniform(-0.1, 0.1);
    theta2_ = rng.uniform(-0.1, 0.1);
    dtheta1_ = rng.uniform(-0.1, 0.1);
    dtheta2_ = rng.uniform(-0.1, 0.1);
    bestHeight_ = tipHeight();
    succeeded_ = false;
    done_ = false;
    resetBookkeeping();
    observe(obs);
}

void
Acrobot::observe(std::span<double> obs) const
{
    obs[0] = std::cos(theta1_);
    obs[1] = std::sin(theta1_);
    obs[2] = std::cos(theta2_);
    obs[3] = std::sin(theta2_);
    obs[4] = dtheta1_;
    obs[5] = dtheta2_;
}

double
Acrobot::tipHeight() const
{
    // theta1 measured from the downward vertical.
    return -std::cos(theta1_) - std::cos(theta1_ + theta2_);
}

StepOutcome
Acrobot::stepInto(const Action &action, std::span<double> obs)
{
    GENESYS_ASSERT(!done_, "step() after episode end");
    checkObservationSpan(obs);
    GENESYS_ASSERT(!action.continuous.empty(), "Acrobot needs a torque");
    const double torque =
        std::clamp(action.continuous[0], -1.0, 1.0);

    // Book dynamics (Sutton & Barto), as in the gym implementation,
    // integrated with two half-steps of Euler for stability.
    for (int i = 0; i < 2; ++i) {
        const double m1 = linkMass1_, m2 = linkMass2_;
        const double l1 = linkLength1_;
        const double lc1 = linkCom1_, lc2 = linkCom2_;
        const double i1 = linkMoi_, i2 = linkMoi_;

        const double d1 =
            m1 * lc1 * lc1 +
            m2 * (l1 * l1 + lc2 * lc2 +
                  2.0 * l1 * lc2 * std::cos(theta2_)) +
            i1 + i2;
        const double d2 =
            m2 * (lc2 * lc2 + l1 * lc2 * std::cos(theta2_)) + i2;
        const double phi2 =
            m2 * lc2 * g_ * std::cos(theta1_ + theta2_ - M_PI / 2.0);
        const double phi1 =
            -m2 * l1 * lc2 * dtheta2_ * dtheta2_ * std::sin(theta2_) -
            2.0 * m2 * l1 * lc2 * dtheta2_ * dtheta1_ *
                std::sin(theta2_) +
            (m1 * lc1 + m2 * l1) * g_ *
                std::cos(theta1_ - M_PI / 2.0) +
            phi2;
        const double ddtheta2 =
            (torque + d2 / d1 * phi1 -
             m2 * l1 * lc2 * dtheta1_ * dtheta1_ * std::sin(theta2_) -
             phi2) /
            (m2 * lc2 * lc2 + i2 - d2 * d2 / d1);
        const double ddtheta1 = -(d2 * ddtheta2 + phi1) / d1;

        const double h = dt_ / 2.0;
        theta1_ = wrapAngle(theta1_ + h * dtheta1_);
        theta2_ = wrapAngle(theta2_ + h * dtheta2_);
        dtheta1_ = std::clamp(dtheta1_ + h * ddtheta1, -maxVel1_, maxVel1_);
        dtheta2_ = std::clamp(dtheta2_ + h * ddtheta2, -maxVel2_, maxVel2_);
    }

    bestHeight_ = std::max(bestHeight_, tipHeight());

    StepOutcome r;
    observe(obs);
    succeeded_ = tipHeight() > 1.0;
    r.reward = succeeded_ ? 0.0 : -1.0;
    accumulate(r.reward);
    done_ = succeeded_ || stepsTaken_ >= maxSteps();
    r.done = done_;
    return r;
}

double
Acrobot::episodeFitness() const
{
    // Normalized best tip height: -2 (hanging) .. +2 (fully
    // inverted); the success line (height > 1) maps to fitness 1.
    const double shaped = (bestHeight_ + 2.0) / 3.0;
    if (!succeeded_)
        return std::min(shaped, 0.99);
    const double time_bonus =
        static_cast<double>(maxSteps() - stepsTaken_) /
        static_cast<double>(maxSteps());
    return 1.0 + time_bonus;
}

} // namespace genesys::env
