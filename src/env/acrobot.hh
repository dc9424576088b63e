/**
 * @file
 * Acrobot: swing up a two-link underactuated pendulum (Table I:
 * "Balance a complex inverted pendulum constructed by linking two
 * rigid rods"). Six float observations; per Table I the action is a
 * single float — the torque applied at the joint between the links.
 */

#ifndef GENESYS_ENV_ACROBOT_HH
#define GENESYS_ENV_ACROBOT_HH

#include <cmath>

#include "env/env.hh"

namespace genesys::env
{

class Acrobot : public Environment
{
  public:
    Acrobot() = default;

    const std::string &name() const override;
    int observationSize() const override { return 6; }
    ActionSpace
    actionSpace() const override
    {
        return {ActionSpace::Kind::Continuous, 1, -1.0, 1.0};
    }
    int recommendedOutputs() const override { return 1; }
    int maxSteps() const override { return 300; }

    /** Shaped: best tip height reached; >= 1.0 means success. */
    double episodeFitness() const override;
    double targetFitness() const override { return 1.0; }

    void resetInto(uint64_t seed, std::span<double> obs) override;
    StepOutcome stepInto(const Action &action,
                         std::span<double> obs) override;

  private:
    void observe(std::span<double> obs) const;
    /** Height of the tip above the pivot, in [-2, 2]. */
    double tipHeight() const;

    double theta1_ = 0.0;
    double theta2_ = 0.0;
    double dtheta1_ = 0.0;
    double dtheta2_ = 0.0;
    double bestHeight_ = -2.0;
    bool succeeded_ = false;
    bool done_ = true;

    static constexpr double dt_ = 0.2;
    static constexpr double linkLength1_ = 1.0;
    static constexpr double linkMass1_ = 1.0;
    static constexpr double linkMass2_ = 1.0;
    static constexpr double linkCom1_ = 0.5;
    static constexpr double linkCom2_ = 0.5;
    static constexpr double linkMoi_ = 1.0;
    static constexpr double g_ = 9.8;
    static constexpr double maxVel1_ = 4.0 * M_PI;
    static constexpr double maxVel2_ = 9.0 * M_PI;
};

} // namespace genesys::env

#endif // GENESYS_ENV_ACROBOT_HH
