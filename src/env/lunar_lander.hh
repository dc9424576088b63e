/**
 * @file
 * LunarLander-v2 substitute: land a module on a pad by firing its
 * thrusters (Table I: 8 float observations, one integer action < 4).
 *
 * The gym original uses Box2D; we implement an equivalent rigid-body
 * 2D lander (gravity, main + two side thrusters, two landing legs,
 * flat pad at the origin) with the gym observation layout, action
 * set, and potential-based shaping reward. See README, "Modelled, not
 * measured", for the substitution rationale.
 */

#ifndef GENESYS_ENV_LUNAR_LANDER_HH
#define GENESYS_ENV_LUNAR_LANDER_HH

#include "env/env.hh"

namespace genesys::env
{

class LunarLander : public Environment
{
  public:
    LunarLander() = default;

    const std::string &name() const override;
    int observationSize() const override { return 8; }
    ActionSpace
    actionSpace() const override
    {
        // 0: noop, 1: left engine, 2: main engine, 3: right engine.
        return {ActionSpace::Kind::Discrete, 4, 0.0, 0.0};
    }
    int recommendedOutputs() const override { return 4; }
    int maxSteps() const override { return 400; }

    /** Normalized: 1.0 corresponds to gym's "solved" (+200 reward). */
    double episodeFitness() const override;
    double targetFitness() const override { return 1.0; }

    void resetInto(uint64_t seed, std::span<double> obs) override;
    StepOutcome stepInto(const Action &action,
                         std::span<double> obs) override;

    bool landed() const { return landed_; }
    bool crashed() const { return crashed_; }

  private:
    void observe(std::span<double> obs) const;
    double shaping() const;

    // State: position, velocity, attitude, leg contacts.
    double x_ = 0.0, y_ = 0.0;
    double vx_ = 0.0, vy_ = 0.0;
    double angle_ = 0.0, vAngle_ = 0.0;
    bool legLeft_ = false, legRight_ = false;
    bool landed_ = false, crashed_ = false;
    bool done_ = true;
    double prevShaping_ = 0.0;
    int restSteps_ = 0;

    static constexpr double gravity_ = -1.6;   // lunar g, m/s^2
    static constexpr double dt_ = 0.05;
    static constexpr double mainAccel_ = 4.0;  // thrust accelerations
    static constexpr double sideAccel_ = 1.2;
    static constexpr double sideTorque_ = 1.5;
    static constexpr double angularDamping_ = 0.2;
    static constexpr double legSpan_ = 0.12;   // half distance legs
    static constexpr double padHalfWidth_ = 0.25;
    static constexpr double crashSpeed_ = 1.2;
    static constexpr double crashAngle_ = 0.8;
    static constexpr double worldLimit_ = 1.5;
};

} // namespace genesys::env

#endif // GENESYS_ENV_LUNAR_LANDER_HH
