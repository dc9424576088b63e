/**
 * @file
 * Environment interface for the GeneSys closed loop ("n Environment
 * Instances" in Fig 6). These play the role of the OpenAI-gym suite
 * in Table I: each exposes an observation vector, an action space,
 * per-step rewards, and an episode-level fitness used by NEAT.
 */

#ifndef GENESYS_ENV_ENV_HH
#define GENESYS_ENV_ENV_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace genesys::env
{

/** Action space descriptor. */
struct ActionSpace
{
    enum class Kind
    {
        Discrete,
        Continuous,
    };

    Kind kind = Kind::Discrete;
    /** Number of discrete actions, or continuous dimensions. */
    int n = 1;
    /** Bounds for continuous actions. */
    double low = -1.0;
    double high = 1.0;
};

/** A decoded action: exactly one of the two fields is meaningful. */
struct Action
{
    int discrete = 0;
    std::vector<double> continuous;
};

/** One simulation step's outcome, as Environment::step returns it. */
struct StepResult
{
    std::vector<double> observation;
    double reward = 0.0;
    bool done = false;
};

/**
 * One simulation step's outcome from Environment::stepInto, which
 * writes the observation into the caller's buffer instead.
 */
struct StepOutcome
{
    double reward = 0.0;
    bool done = false;
};

/**
 * Abstract environment. Implementations are deterministic given the
 * seed passed to reset().
 *
 * Implementations provide the span primitives resetInto/stepInto,
 * which write the observation into a caller-owned buffer of exactly
 * observationSize() doubles; the episode loop reuses one buffer per
 * lane, so a steady-state step allocates nothing. reset/step are
 * vector-returning adapters over them, bit-identical by construction.
 */
class Environment
{
  public:
    virtual ~Environment() = default;

    virtual const std::string &name() const = 0;

    /** Dimension of the observation vector (Table I). */
    virtual int observationSize() const = 0;

    virtual ActionSpace actionSpace() const = 0;

    /**
     * Network outputs the policy should produce for this
     * environment: 1 for binary/continuous-scalar actions, n for
     * argmax-decoded discrete spaces, dims for continuous vectors.
     */
    virtual int recommendedOutputs() const = 0;

    /** Episode step cap. */
    virtual int maxSteps() const = 0;

    /**
     * Start a new episode; writes the initial observation into `obs`,
     * which must hold exactly observationSize() doubles.
     */
    virtual void resetInto(uint64_t seed, std::span<double> obs) = 0;

    /**
     * Advance one step, writing the new observation into `obs`
     * (observationSize() doubles). Calling before the first reset or
     * after done is an error.
     */
    virtual StepOutcome stepInto(const Action &action,
                                 std::span<double> obs) = 0;

    /**
     * Whether stepLanes() beats one stepInto() per lane for this
     * environment type. The episode loop then decodes every live lane,
     * makes one stepLanes() call and retires finished lanes in lane
     * order; otherwise it steps each lane as it decodes it.
     */
    virtual bool stepsLanesTogether() const { return false; }

    /**
     * Advance every live lane one step: lane l with live[l] != 0 steps
     * with actions[l], writes its observation into obs[l] and its
     * outcome into out[l]. Idle lanes are not touched. All five spans
     * are lane-indexed and equally long. Lane for lane the result is
     * lanes[l]->stepInto(actions[l], obs[l]), which the default calls.
     * Call it on any one of the lanes: an override may assume that
     * every lane has that lane's dynamic type, and a checked build
     * asserts that it does.
     */
    virtual void stepLanes(std::span<Environment *const> lanes,
                           std::span<const Action> actions,
                           std::span<std::vector<double>> obs,
                           std::span<const uint8_t> live,
                           std::span<StepOutcome> out);

    /** resetInto() into a fresh vector. */
    std::vector<double> reset(uint64_t seed);

    /** stepInto() into a fresh vector. */
    StepResult step(const Action &action);

    /**
     * Fitness of the episode so far. Defaults to the cumulative
     * reward; environments with sparse rewards add shaping here
     * (the per-application "fitness function" of Section III-B).
     */
    virtual double episodeFitness() const { return cumulativeReward_; }

    /**
     * Fitness at which the task counts as solved ("target fitness").
     */
    virtual double targetFitness() const = 0;

    double cumulativeReward() const { return cumulativeReward_; }
    int stepsTaken() const { return stepsTaken_; }

  protected:
    /** Fail loudly unless `obs` holds exactly observationSize() doubles. */
    void checkObservationSpan(std::span<const double> obs) const;

    /** Fail loudly unless stepLanes()' spans are equally long. */
    static void checkLaneBatch(std::span<Environment *const> lanes,
                               std::span<const Action> actions,
                               std::span<std::vector<double>> obs,
                               std::span<const uint8_t> live,
                               std::span<StepOutcome> out);

    /** Book-keeping helper for subclasses' stepInto() implementations. */
    void
    accumulate(double reward)
    {
        cumulativeReward_ += reward;
        ++stepsTaken_;
    }

    void
    resetBookkeeping()
    {
        cumulativeReward_ = 0.0;
        stepsTaken_ = 0;
    }

    double cumulativeReward_ = 0.0;
    int stepsTaken_ = 0;
};

/**
 * Decode raw network outputs into an environment action:
 *  - Discrete n==2 with one output: threshold at 0.5.
 *  - Discrete: argmax over n outputs.
 *  - Continuous: clamp each output into [low, high] (outputs in
 *    [0,1] from sigmoid-style activations are rescaled).
 */
Action decodeAction(const ActionSpace &space,
                    const std::vector<double> &outputs);

/**
 * As decodeAction(), into `action`: the continuous vector is cleared
 * and refilled, so a reused Action decodes without allocating.
 */
void decodeActionInto(const ActionSpace &space,
                      std::span<const double> outputs, Action &action);

} // namespace genesys::env

#endif // GENESYS_ENV_ENV_HH
