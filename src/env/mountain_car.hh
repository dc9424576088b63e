/**
 * @file
 * MountainCar-v0: drive an underpowered car out of a valley
 * (Table I). Gym-identical dynamics: 2 float observations, one
 * integer action in {0,1,2}.
 */

#ifndef GENESYS_ENV_MOUNTAIN_CAR_HH
#define GENESYS_ENV_MOUNTAIN_CAR_HH

#include "env/env.hh"

namespace genesys::env
{

class MountainCar : public Environment
{
  public:
    MountainCar() = default;

    const std::string &name() const override;
    int observationSize() const override { return 2; }
    ActionSpace
    actionSpace() const override
    {
        return {ActionSpace::Kind::Discrete, 3, 0.0, 0.0};
    }
    int recommendedOutputs() const override { return 3; }
    int maxSteps() const override { return 200; }

    /**
     * Shaped fitness: progress toward the flag plus a time bonus on
     * success. Reaching the goal scores >= 1.0.
     */
    double episodeFitness() const override;
    double targetFitness() const override { return 1.0; }

    void resetInto(uint64_t seed, std::span<double> obs) override;
    StepOutcome stepInto(const Action &action,
                         std::span<double> obs) override;

    bool reachedGoal() const { return reachedGoal_; }

  private:
    double position_ = 0.0;
    double velocity_ = 0.0;
    double maxPosition_ = -1.2;
    bool reachedGoal_ = false;
    bool done_ = true;

    static constexpr double minPosition_ = -1.2;
    static constexpr double maxPositionLimit_ = 0.6;
    static constexpr double maxSpeed_ = 0.07;
    static constexpr double goalPosition_ = 0.5;
    static constexpr double force_ = 0.001;
    static constexpr double gravity_ = 0.0025;
};

} // namespace genesys::env

#endif // GENESYS_ENV_MOUNTAIN_CAR_HH
