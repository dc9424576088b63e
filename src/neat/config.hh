/**
 * @file
 * NEAT algorithm configuration. The fields correspond to the
 * "configurable parameters" the GeneSys System CPU programs into the
 * accelerator (Section IV-A: "setting the various probabilities,
 * population size, fitness equation, and so on").
 */

#ifndef GENESYS_NEAT_CONFIG_HH
#define GENESYS_NEAT_CONFIG_HH

#include <string>
#include <vector>

#include "neat/activations.hh"
#include "neat/aggregations.hh"
#include "neat/attributes.hh"

namespace genesys::neat
{

/**
 * Complete NEAT configuration: genome structure, mutation
 * probabilities, compatibility/speciation parameters, reproduction
 * and stagnation policy.
 */
struct NeatConfig
{
    // --- population -----------------------------------------------------
    /** Genomes per generation (paper uses 150). */
    int populationSize = 150;
    /** Stop when the best fitness reaches this value. */
    double fitnessThreshold = 1.0;

    // --- genome structure -------------------------------------------------
    int numInputs = 2;
    int numOutputs = 1;
    int numHidden = 0;
    /** Only acyclic genomes (paper evolves feed-forward networks). */
    bool feedForward = true;

    // --- gene attributes ---------------------------------------------------
    FloatAttributeSpec bias{0.0, 1.0, -30.0, 30.0, 0.5, 0.7, 0.1};
    FloatAttributeSpec response{1.0, 0.0, -30.0, 30.0, 0.0, 0.0, 0.0};
    FloatAttributeSpec weight{0.0, 1.0, -30.0, 30.0, 0.5, 0.8, 0.1};
    BoolAttributeSpec enabled{true, 0.01};
    EnumAttributeSpec<Activation> activation{
        Activation::Sigmoid, {Activation::Sigmoid}, 0.0};
    EnumAttributeSpec<Aggregation> aggregation{
        Aggregation::Sum, {Aggregation::Sum}, 0.0};

    // --- structural mutation -----------------------------------------------
    double connAddProb = 0.5;
    double connDeleteProb = 0.5;
    double nodeAddProb = 0.2;
    double nodeDeleteProb = 0.2;
    /**
     * Hardware liveness constraint (Section IV-C3): the EvE Delete
     * Gene Engine refuses node deletions once this many nodes have
     * been deleted from a genome "in order to keep the genome alive".
     * <= 0 disables the check (pure-software NEAT behaviour).
     */
    int maxNodeDeletionsPerChild = 0;

    // --- compatibility / speciation -----------------------------------------
    double compatibilityDisjointCoefficient = 1.0;
    double compatibilityWeightCoefficient = 0.5;
    double compatibilityThreshold = 3.0;

    // --- reproduction --------------------------------------------------------
    /** Top genomes copied unchanged into the next generation. */
    int elitism = 2;
    /** Fraction of each species allowed to reproduce. */
    double survivalThreshold = 0.2;
    int minSpeciesSize = 2;
    /**
     * Rank bias of parent selection within the survivor pool: a
     * uniform draw u is mapped to rank floor(cutoff * u^bias), so
     * bias 1.0 is uniform and larger values concentrate reproduction
     * on the fittest parents. The paper's measured fittest-parent
     * reuse (Fig 4(c): ~20 typical, up to 80 of 150 children) implies
     * strongly skewed selection; 2.0 reproduces that band and feeds
     * the genome-level-reuse (GLR) opportunity EvE's multicast NoC
     * exploits.
     */
    double parentSelectionBias = 2.0;

    // --- stagnation ------------------------------------------------------------
    int maxStagnation = 15;
    /** Number of best species protected from stagnation removal. */
    int speciesElitism = 2;

    /** Sanity-check field values; throws on inconsistent settings. */
    void validate() const;
};

} // namespace genesys::neat

#endif // GENESYS_NEAT_CONFIG_HH
