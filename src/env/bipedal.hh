/**
 * @file
 * BipedalWalker substitute: evolve locomotion control for a
 * two-legged robot on simple terrain (Table I: 24 float
 * observations). The gym original uses Box2D; we implement a reduced
 * planar biped — hull plus two 2-joint legs with torque-driven joint
 * dynamics and kinematic ground contact — preserving the 24-dim
 * observation layout (hull state, joint states, contacts, 10 lidar
 * rays) and 4 continuous joint actions. See README, "Modelled, not
 * measured".
 */

#ifndef GENESYS_ENV_BIPEDAL_HH
#define GENESYS_ENV_BIPEDAL_HH

#include <array>

#include "env/env.hh"

namespace genesys::env
{

class BipedalWalker : public Environment
{
  public:
    BipedalWalker() = default;

    const std::string &name() const override;
    int observationSize() const override { return 24; }
    ActionSpace
    actionSpace() const override
    {
        return {ActionSpace::Kind::Continuous, 4, -1.0, 1.0};
    }
    int recommendedOutputs() const override { return 4; }
    int maxSteps() const override { return 400; }

    /** Normalized forward progress; 1.0 = reached the goal line. */
    double episodeFitness() const override;
    double targetFitness() const override { return 1.0; }

    void resetInto(uint64_t seed, std::span<double> obs) override;
    StepOutcome stepInto(const Action &action,
                         std::span<double> obs) override;

    double hullX() const { return x_; }

  private:
    void observe(std::span<double> obs) const;
    /** Foot height above ground for a leg (kinematics). */
    double footY(int leg) const;

    // Hull state.
    double x_ = 0.0, y_ = 0.0;
    double vx_ = 0.0, vy_ = 0.0;
    double angle_ = 0.0, vAngle_ = 0.0;
    // Per leg: hip angle/vel, knee angle/vel.
    std::array<double, 2> hip_{}, hipV_{}, knee_{}, kneeV_{};
    std::array<bool, 2> contact_{};
    bool fell_ = false;
    bool done_ = true;
    double torqueUsed_ = 0.0;

    static constexpr double dt_ = 0.025;
    static constexpr double g_ = -9.8;
    static constexpr double hullHeight_ = 0.50;
    static constexpr double thigh_ = 0.34;
    static constexpr double shank_ = 0.34;
    static constexpr double jointGain_ = 18.0;
    static constexpr double jointDamping_ = 3.0;
    static constexpr double goalDistance_ = 6.0;
};

} // namespace genesys::env

#endif // GENESYS_ENV_BIPEDAL_HH
