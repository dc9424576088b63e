/**
 * @file
 * Speciation (Section II-D): genomes are grouped into species by
 * compatibility distance so that new topological innovations are
 * protected from immediate competition with older, fitter genomes.
 */

#ifndef GENESYS_NEAT_SPECIES_HH
#define GENESYS_NEAT_SPECIES_HH

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "neat/executor.hh"
#include "neat/genome.hh"

namespace genesys::neat
{

/** One species: a representative genome and its member keys. */
struct Species
{
    int key = -1;
    int createdGeneration = 0;
    int lastImprovedGeneration = 0;
    Genome representative;
    std::vector<int> memberKeys;
    /** Species-level fitness (per cfg.speciesFitnessFunc). */
    std::optional<double> fitness;
    std::vector<double> fitnessHistory;
    double adjustedFitness = 0.0;

    /** Member fitness values, read from the population map. */
    std::vector<double>
    memberFitnesses(const std::map<int, Genome> &population) const;
};

/**
 * Memoizes pairwise genome distances within a speciation pass; the
 * O(population^2) distance work dominates speciation cost.
 */
class DistanceCache
{
  public:
    explicit DistanceCache(const NeatConfig &cfg) : cfg_(cfg) {}

    double distance(const Genome &a, const Genome &b);

    /**
     * Memoize distance(*reps[r], *genomes[g]) for every (r, g) pair,
     * computed on `exec`. Genome::distance is pure and bitwise
     * symmetric, so a prefilled pass returns exactly the values the
     * serial lookups would have computed. Each computed pair counts
     * as a miss.
     */
    void prefill(const std::vector<const Genome *> &reps,
                 const std::vector<const Genome *> &genomes,
                 const Executor &exec);

    size_t hits() const { return hits_; }
    size_t misses() const { return misses_; }

  private:
    const NeatConfig &cfg_;
    std::map<std::pair<int, int>, double> cache_;
    size_t hits_ = 0;
    size_t misses_ = 0;
};

/**
 * The set of all current species, with the neat-python speciation
 * procedure: pick new representatives closest to the previous ones,
 * then assign every genome to the nearest compatible species (or a
 * fresh one).
 */
class SpeciesSet
{
  public:
    explicit SpeciesSet(const NeatConfig &cfg) : cfg_(cfg) {}

    /**
     * Partition `population` into species for `generation`. The
     * distances to the previous representatives, and then to the
     * representatives step 1 picks, are computed up front on `exec`;
     * the assignment itself stays serial, so the partition does not
     * depend on the executor.
     */
    void speciate(const std::map<int, Genome> &population, int generation,
                  const Executor &exec = {});

    const std::map<int, Species> &species() const { return species_; }
    std::map<int, Species> &mutableSpecies() { return species_; }

    /** Species key for a genome; -1 if not assigned. */
    int speciesOf(int genome_key) const;

    size_t count() const { return species_.size(); }
    bool empty() const { return species_.empty(); }

    /** Remove a species (stagnation). */
    void remove(int species_key);

    /** Next species key to be issued (snapshot provenance). */
    int nextSpeciesKey() const { return nextSpeciesKey_; }

    /**
     * Snapshot restore: replace the whole species partition (member
     * lists, representatives, fitness histories) and the species-key
     * counter; the genome->species index is rebuilt from the member
     * lists. Used by persist::* — a resumed run speciates and ages
     * species exactly as the uninterrupted run would.
     */
    void restore(std::map<int, Species> species, int next_species_key);

  private:
    const NeatConfig &cfg_;
    std::map<int, Species> species_;
    std::map<int, int> genomeToSpecies_;
    int nextSpeciesKey_ = 1;
};

} // namespace genesys::neat

#endif // GENESYS_NEAT_SPECIES_HH
