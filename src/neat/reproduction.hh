/**
 * @file
 * Reproduction: selection (fitness sharing + survival threshold),
 * elitism, and child creation via crossover + mutation. In GeneSys
 * this is the work split between the Gene Selector (a CPU thread,
 * step 7 of the walkthrough) and the EvE PE array (steps 8-10); the
 * EvolutionTrace emitted here is what the hardware model replays.
 */

#ifndef GENESYS_NEAT_REPRODUCTION_HH
#define GENESYS_NEAT_REPRODUCTION_HH

#include <map>
#include <vector>

#include "common/rng.hh"
#include "neat/species.hh"
#include "neat/stagnation.hh"
#include "neat/trace.hh"

namespace genesys::neat
{

/** NEAT reproduction engine (neat-python DefaultReproduction). */
class Reproduction
{
  public:
    explicit Reproduction(const NeatConfig &cfg);

    /** Fresh generation-0 population of cfg.populationSize genomes. */
    std::map<int, Genome> createNewPopulation(XorWow &rng);

    /**
     * Produce the next generation from the current one. Removes
     * stagnant species from `species` as a side effect. Returns the
     * new population (empty on complete extinction) and fills
     * `trace` with the reproduction record.
     *
     * Selection, elites and child keys are drawn serially from `rng`,
     * followed by one breed seed. Each child is then crossed over and
     * mutated on `exec` from its own stream, derived from (breed
     * seed, child index), so the result is bit-identical for every
     * executor and thread count.
     */
    std::map<int, Genome>
    reproduce(SpeciesSet &species, const std::map<int, Genome> &population,
              int generation, XorWow &rng, EvolutionTrace &trace,
              const Executor &exec = {});

    /**
     * Spawn-count apportioning (neat-python compute_spawn): smooth
     * each species' size toward its adjusted-fitness share of the
     * population.
     */
    static std::vector<int>
    computeSpawn(const std::vector<double> &adjusted_fitness,
                 const std::vector<int> &previous_sizes, int pop_size,
                 int min_species_size);

    /**
     * Wall-clock of the last reproduce() call's parallel breed pass
     * (phase 2: every child's crossover and mutation); 0 when that
     * call ended before it (complete extinction). Timing only:
     * nothing in evolution reads it.
     */
    double lastBreedSeconds() const { return lastBreedSeconds_; }

    NodeIndexer &nodeIndexer() { return nodeIndexer_; }
    const NodeIndexer &nodeIndexer() const { return nodeIndexer_; }

    /** Total genomes created so far (next genome key). */
    int genomesCreated() const { return nextGenomeKey_; }

    /**
     * Snapshot restore: resume the genome-key and node-id issuers
     * exactly where the saved run left them. Without this, a resumed
     * run would re-issue keys the saved population already holds and
     * crossover alignment (globally-unique node ids) would break.
     */
    void
    restore(int next_genome_key, int next_node_key)
    {
        nextGenomeKey_ = next_genome_key;
        nodeIndexer_.restore(next_node_key);
    }

  private:
    int nextGenomeKey_ = 0;
    double lastBreedSeconds_ = 0.0;

    const NeatConfig &cfg_;
    Stagnation stagnation_;
    NodeIndexer nodeIndexer_;
};

} // namespace genesys::neat

#endif // GENESYS_NEAT_REPRODUCTION_HH
