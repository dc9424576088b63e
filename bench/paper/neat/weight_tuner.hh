/**
 * @file
 * Weight tuning for a fixed topology — the paper's Future Directions
 * hybrid: "GENESYS can be run in conjunction with supervised
 * learning, with the former enabling rapid topology exploration and
 * then using conventional training to tune the weights". We implement
 * the backprop-free variant suited to the same hardware: a (mu+lambda)
 * evolution strategy over the genome's float attributes only (weights,
 * biases, responses). Structure is frozen, so every candidate maps to
 * the same EvE/ADAM schedules — pure gene-level parallelism.
 */

#ifndef GENESYS_NEAT_WEIGHT_TUNER_HH
#define GENESYS_NEAT_WEIGHT_TUNER_HH

#include <functional>

#include "neat/genome.hh"

namespace genesys::neat
{

/** Tuning hyper-parameters. */
struct WeightTunerConfig
{
    /** Survivors per iteration (mu). */
    int parents = 4;
    /** Offspring per iteration (lambda). */
    int offspring = 16;
    /** Initial perturbation stdev. */
    double sigma = 0.3;
    /** Multiplicative sigma decay per unsuccessful iteration. */
    double sigmaDecay = 0.95;
    /** Minimum sigma (stops annealing). */
    double sigmaMin = 1e-3;
    int iterations = 50;
};

/** Result of a tuning run. */
struct WeightTunerResult
{
    Genome best;
    double bestFitness = 0.0;
    double initialFitness = 0.0;
    int evaluations = 0;
};

/**
 * (mu+lambda)-ES over float gene attributes of a frozen topology.
 */
class WeightTuner
{
  public:
    using FitnessFn = std::function<double(const Genome &)>;

    WeightTuner(const NeatConfig &neat_cfg, WeightTunerConfig cfg = {})
        : neatCfg_(neat_cfg), cfg_(cfg)
    {
    }

    /** Tune `seed_genome`'s weights to maximize `fitness`. */
    WeightTunerResult tune(const Genome &seed_genome,
                           const FitnessFn &fitness, XorWow &rng) const;

  private:
    /** Gaussian-perturb every float attribute (clamped to spec). */
    Genome perturb(const Genome &g, double sigma, XorWow &rng) const;

    const NeatConfig &neatCfg_;
    WeightTunerConfig cfg_;
};

} // namespace genesys::neat

#endif // GENESYS_NEAT_WEIGHT_TUNER_HH
