/**
 * @file
 * CartPole-v0: balance an inverted pendulum on a moving cart
 * (Table I). Classic Barto-Sutton-Anderson dynamics, identical to the
 * OpenAI gym implementation: 4 float observations, one binary action.
 */

#ifndef GENESYS_ENV_CARTPOLE_HH
#define GENESYS_ENV_CARTPOLE_HH

#include <cmath>

#include "env/env.hh"

namespace genesys::env
{

class CartPole : public Environment
{
  public:
    CartPole() = default;

    const std::string &name() const override;
    int observationSize() const override { return 4; }
    ActionSpace
    actionSpace() const override
    {
        return {ActionSpace::Kind::Discrete, 2, 0.0, 0.0};
    }
    /** Table I: "One binary value" — a single thresholded output. */
    int recommendedOutputs() const override { return 1; }
    int maxSteps() const override { return 200; }
    /**
     * Paper win criterion: balance for 100 consecutive steps. With
     * +1 reward per balanced step the target fitness is 100.
     */
    double targetFitness() const override { return 100.0; }

    void resetInto(uint64_t seed, std::span<double> obs) override;
    StepOutcome stepInto(const Action &action,
                         std::span<double> obs) override;

  private:
    void observe(std::span<double> obs) const;

    double x_ = 0.0;
    double xDot_ = 0.0;
    double theta_ = 0.0;
    double thetaDot_ = 0.0;
    bool done_ = true;

    static constexpr double gravity_ = 9.8;
    static constexpr double massCart_ = 1.0;
    static constexpr double massPole_ = 0.1;
    static constexpr double totalMass_ = massCart_ + massPole_;
    static constexpr double length_ = 0.5; // half pole length
    static constexpr double poleMassLength_ = massPole_ * length_;
    static constexpr double forceMag_ = 10.0;
    static constexpr double tau_ = 0.02;
    static constexpr double thetaThreshold_ = 12.0 * 2.0 * M_PI / 360.0;
    static constexpr double xThreshold_ = 2.4;
};

} // namespace genesys::env

#endif // GENESYS_ENV_CARTPOLE_HH
