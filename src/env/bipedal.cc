#include "env/bipedal.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace genesys::env
{

const std::string &
BipedalWalker::name() const
{
    static const std::string n = "Bipedal";
    return n;
}

void
BipedalWalker::resetInto(uint64_t seed, std::span<double> obs)
{
    checkObservationSpan(obs);
    XorWow rng(seed);
    x_ = 0.0;
    y_ = hullHeight_ + thigh_ + shank_;
    vx_ = vy_ = 0.0;
    angle_ = rng.uniform(-0.05, 0.05);
    vAngle_ = 0.0;
    for (int l = 0; l < 2; ++l) {
        hip_[l] = rng.uniform(-0.1, 0.1);
        knee_[l] = rng.uniform(0.0, 0.1);
        hipV_[l] = kneeV_[l] = 0.0;
        contact_[l] = true;
    }
    fell_ = false;
    done_ = false;
    torqueUsed_ = 0.0;
    resetBookkeeping();
    observe(obs);
}

double
BipedalWalker::footY(int leg) const
{
    const double a1 = angle_ + hip_[leg];
    const double a2 = a1 + knee_[leg];
    return y_ - thigh_ * std::cos(a1) - shank_ * std::cos(a2);
}

void
BipedalWalker::observe(std::span<double> obs) const
{
    size_t k = 0;
    // Hull state (gym layout: angle, angular vel, vx, vy).
    obs[k++] = angle_;
    obs[k++] = vAngle_;
    obs[k++] = vx_;
    obs[k++] = vy_;
    // Joints + contact per leg.
    for (int l = 0; l < 2; ++l) {
        obs[k++] = hip_[l];
        obs[k++] = hipV_[l];
        obs[k++] = knee_[l];
        obs[k++] = kneeV_[l];
        obs[k++] = contact_[l] ? 1.0 : 0.0;
    }
    // 10 lidar rays fanned ahead-and-down; terrain is flat, so the
    // ranges are a function of hull height and ray angle.
    for (int i = 0; i < 10; ++i) {
        const double ray =
            0.15 + 1.2 * static_cast<double>(i) / 9.0; // from vertical
        const double c = std::cos(std::min(ray, 1.45));
        const double range = c > 0.05 ? std::min(y_ / c, 2.5) : 2.5;
        obs[k++] = range;
    }
}

StepOutcome
BipedalWalker::stepInto(const Action &action, std::span<double> obs)
{
    GENESYS_ASSERT(!done_, "step() after episode end");
    checkObservationSpan(obs);
    GENESYS_ASSERT(action.continuous.size() >= 4,
                   "BipedalWalker needs 4 torques");

    const double x_before = x_;
    double torque_mag = 0.0;

    // Joint dynamics: torque-driven, damped, range-limited.
    for (int l = 0; l < 2; ++l) {
        const double t_hip =
            std::clamp(action.continuous[static_cast<size_t>(2 * l)],
                       -1.0, 1.0);
        const double t_knee =
            std::clamp(action.continuous[static_cast<size_t>(2 * l + 1)],
                       -1.0, 1.0);
        torque_mag += std::fabs(t_hip) + std::fabs(t_knee);

        hipV_[l] += (t_hip * jointGain_ - jointDamping_ * hipV_[l]) * dt_;
        kneeV_[l] +=
            (t_knee * jointGain_ - jointDamping_ * kneeV_[l]) * dt_;
        hip_[l] += hipV_[l] * dt_;
        knee_[l] += kneeV_[l] * dt_;
        // Hip swing and knee bend limits (knee only bends one way).
        if (hip_[l] > 1.1) { hip_[l] = 1.1; hipV_[l] = 0.0; }
        if (hip_[l] < -0.8) { hip_[l] = -0.8; hipV_[l] = 0.0; }
        if (knee_[l] > 1.2) { knee_[l] = 1.2; kneeV_[l] = 0.0; }
        if (knee_[l] < -0.1) { knee_[l] = -0.1; kneeV_[l] = 0.0; }
    }

    // Contact and ground reaction.
    int stance_legs = 0;
    double support = 0.0;
    double drive = 0.0;
    for (int l = 0; l < 2; ++l) {
        const double fy = footY(l);
        contact_[l] = fy <= 0.0;
        if (contact_[l]) {
            ++stance_legs;
            support += std::min(-fy, 0.15) * 220.0; // spring-like
            // A stance leg swinging backwards propels the hull
            // forward (crude stance-phase model).
            drive += std::max(0.0, -hipV_[l]) * 0.55;
        }
    }

    vy_ += (g_ + support) * dt_;
    vx_ += drive * dt_;
    vx_ *= (1.0 - 0.015);                      // rolling friction
    if (stance_legs > 0 && vy_ < -0.5)
        vy_ = -0.5;                            // legs absorb impact
    x_ += vx_ * dt_;
    y_ += vy_ * dt_;

    // Hull attitude reacts to hip torques.
    vAngle_ += (-0.25 * (hipV_[0] + hipV_[1]) * 0.1 -
                0.8 * angle_ - 0.4 * vAngle_) *
               dt_;
    angle_ += vAngle_ * dt_;

    // Standing constraint: cannot sink below fully compressed legs.
    const double min_y = 0.35;
    if (y_ < min_y) {
        y_ = min_y;
        if (vy_ < 0.0)
            vy_ = 0.0;
    }

    fell_ = std::fabs(angle_) > 1.0;

    double reward = 10.0 * (x_ - x_before); // forward progress
    reward -= 0.02 * torque_mag;            // fuel
    reward -= 0.05 * std::fabs(angle_);     // keep the hull level
    if (fell_)
        reward -= 100.0;
    torqueUsed_ += torque_mag;

    accumulate(reward);
    done_ = fell_ || x_ >= goalDistance_ || stepsTaken_ >= maxSteps();

    StepOutcome r;
    observe(obs);
    r.reward = reward;
    r.done = done_;
    return r;
}

double
BipedalWalker::episodeFitness() const
{
    const double progress = std::max(0.0, x_ / goalDistance_);
    return fell_ ? progress * 0.5 : progress;
}

} // namespace genesys::env
