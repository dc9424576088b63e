/**
 * @file
 * The NEAT population loop (Fig 3(b)): evaluate fitness, check the
 * target, reproduce, speciate — while recording the per-generation
 * statistics and evolution traces that drive every characterization
 * figure (Figs 4, 5, 11(a)) and the hardware model. A generation
 * advances through Population::stepBatch, which hands the whole
 * unevaluated generation to the caller's batched fitness callback.
 */

#ifndef GENESYS_NEAT_POPULATION_HH
#define GENESYS_NEAT_POPULATION_HH

#include <functional>
#include <map>
#include <vector>

#include "neat/reproduction.hh"

namespace genesys::neat
{

/** Aggregate statistics for one evaluated generation. */
struct GenerationStats
{
    int generation = 0;
    double bestFitness = 0.0;
    double meanFitness = 0.0;
    int bestGenomeKey = -1;

    /** Totals across the whole population (Fig 4(b), Fig 11(a)). */
    long totalNodeGenes = 0;
    long totalConnectionGenes = 0;
    long totalGenes = 0;
    /** Genome Buffer bytes needed for the generation (Fig 5(b)). */
    long memoryBytes = 0;

    /**
     * Reproduction work (Fig 5(a)) and reuse of the most-used parent
     * (Fig 4(c)) of the reproduction that bred this generation. With
     * SystemConfig::simulateHardware on, core::System's reports()[g]
     * carries instead those of the one that breeds generation g + 1.
     */
    long evolutionOps = 0;
    MutationCounts opBreakdown;
    int maxParentReuse = 0;

    int numSpecies = 0;
};

/**
 * Wall-clock of the serial evolution phases inside one stepBatch()
 * call — the generation-barrier work during which the evaluation
 * lanes idle. Always measured (two steady_clock pairs per
 * generation, nowhere near a hot path); the span tracer additionally
 * records the same phases on the timeline when installed.
 */
struct StepPhaseTimes
{
    /** Breeding the next generation (Gene Selector + EvE). */
    double reproduceSeconds = 0.0;
    /**
     * The part of reproduceSeconds spent in the parallel child pass
     * (crossover and mutation of every bred child); the rest is the
     * serial plan and commit.
     */
    double breedSeconds = 0.0;
    /** Re-speciating the bred population. */
    double speciateSeconds = 0.0;
};

/**
 * The complete resumable state of a Population, in domain types (the
 * byte-level snapshot codec lives in src/persist/). Captured at the
 * generation barrier — right after reproduce + speciate bred an
 * unevaluated generation — and applied to a freshly constructed
 * Population by restore(). Every field is forward-determinism state:
 * dropping any one of them breaks bit-identity of a resumed run.
 */
struct PopulationSnapshot
{
    /** The unevaluated population about to be evaluated. */
    std::map<int, Genome> genomes;
    /** Generation counter (index of the generation in `genomes`). */
    int generation = 0;
    /** The evolution RNG stream, incl. the gaussian cache. */
    XorWowState rngState;
    /** Species partition incl. each species' stagnation state. */
    std::map<int, Species> species;
    int nextSpeciesKey = 1;
    /** Reproduction's genome-key and node-id issuers. */
    int nextGenomeKey = 0;
    int nextNodeKey = 0;
    /** Best genome seen so far (carries its fitness). */
    bool hasBest = false;
    Genome bestGenome;
    /**
     * The trace that bred `genomes` (at most one; the next step's
     * stats read it). Population::traces() holds the same.
     */
    std::vector<EvolutionTrace> traces;
};

/**
 * A handle into the population: the genome's key plus a borrowed
 * pointer, valid for the duration of one batch-evaluation call.
 */
struct GenomeHandle
{
    int key = -1;
    const Genome *genome = nullptr;
};

/**
 * A NEAT population. Fitness evaluation is supplied by the caller as
 * one callback shape, BatchFitnessFn: it receives the whole
 * unevaluated generation at once so the caller can fan it out across
 * workers (exec::EvalEngine) the way GeneSys streams the population
 * through the PE array (in GeneSys, that callback is ADAM + the
 * environment instances; see core/genesys.hh).
 */
class Population
{
  public:
    /**
     * Whole-generation fitness function: receives every unevaluated
     * genome (in ascending key order) and must return one fitness
     * per handle, in the same order.
     */
    using BatchFitnessFn = std::function<std::vector<double>(
        const std::vector<GenomeHandle> &)>;

    /**
     * Create and speciate generation 0. `exec` is the executor that
     * breeding and speciation fan out through (see neat/executor.hh),
     * generation 0's speciation included. Unset, both run as plain
     * loops on the calling thread; results are bit-identical either
     * way.
     */
    Population(const NeatConfig &cfg, uint64_t seed, Executor exec = {});

    /**
     * Evaluate the current generation by handing every unevaluated
     * genome to the callback in one batch (population-level
     * parallelism), record stats, and — unless the fitness threshold
     * is reached — breed the next generation. Returns true if the
     * threshold was reached. A non-finite fitness (NaN, ±inf) is
     * replaced by the lowest finite fitness of the batch (0.0 if none
     * is finite) and counted in the `fitness.non_finite` metric. If
     * every species goes extinct, the next generation is a fresh
     * generation-0 population under new keys, and its trace records
     * no children.
     */
    bool stepBatch(const BatchFitnessFn &fitness);

    // --- inspection -----------------------------------------------------
    const std::map<int, Genome> &genomes() const { return population_; }
    const SpeciesSet &species() const { return speciesSet_; }
    int generation() const { return generation_; }

    /** Stats of every evaluated generation so far. */
    const std::vector<GenerationStats> &history() const { return history_; }

    /**
     * The evolution trace that bred the current generation: empty
     * before the first reproduction, otherwise exactly one trace. A
     * caller that wants the whole history copies back() after every
     * step that bred.
     */
    const std::vector<EvolutionTrace> &traces() const { return traces_; }

    /**
     * Phase wall-clock of the most recent stepBatch() call
     * (zeros when the step solved and bred nothing). Before the first
     * step it holds the constructor's: creating generation 0 and its
     * first speciation. restore() zeroes it.
     */
    const StepPhaseTimes &lastStepPhases() const { return lastPhases_; }

    /** Best genome observed so far (valid after the first step). */
    const Genome &bestGenome() const { return bestGenome_; }
    bool hasBest() const { return hasBest_; }

    XorWow &rng() { return rng_; }
    const XorWow &rng() const { return rng_; }
    const Reproduction &reproduction() const { return reproduction_; }

    /**
     * Capture the resumable state (see PopulationSnapshot). Call at
     * the generation barrier — after a step bred and speciated the
     * next (unevaluated) generation.
     */
    PopulationSnapshot capture() const;

    /**
     * Replace this population's state with a captured snapshot. The
     * whole snapshot is applied at once (the caller validates it
     * first, so a bad file never leaves a half-restored population).
     * History and phase timers reset: the resumed run reports
     * generations from the restore point on.
     */
    void restore(PopulationSnapshot snapshot);

  private:
    GenerationStats
    collectStats(const EvolutionTrace *trace) const;

    NeatConfig cfg_;
    Reproduction reproduction_;
    SpeciesSet speciesSet_;
    XorWow rng_;
    Executor executor_;

    std::map<int, Genome> population_;
    int generation_ = 0;

    std::vector<GenerationStats> history_;
    std::vector<EvolutionTrace> traces_;
    StepPhaseTimes lastPhases_;

    Genome bestGenome_;
    bool hasBest_ = false;
};

} // namespace genesys::neat

#endif // GENESYS_NEAT_POPULATION_HH
