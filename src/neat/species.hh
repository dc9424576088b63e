/**
 * @file
 * Speciation (Section II-D): genomes are grouped into species by
 * compatibility distance so that new topological innovations are
 * protected from immediate competition with older, fitter genomes.
 */

#ifndef GENESYS_NEAT_SPECIES_HH
#define GENESYS_NEAT_SPECIES_HH

#include <limits>
#include <map>
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
    /** Last generation whose species fitness beat bestFitness. */
    int lastImprovedGeneration = 0;
    /**
     * Best species fitness (best member fitness) so far; -inf until
     * the species' first stagnation pass.
     */
    double bestFitness = -std::numeric_limits<double>::infinity();
    Genome representative;
    std::vector<int> memberKeys;
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
     * Partition `population` into species for `generation`. Every
     * distance is computed on `exec`: the previous representatives
     * against every genome, then the representatives step 1 picks
     * against the genomes left over, then each genome that founds a
     * species against the genomes after it. The assignment itself
     * stays serial, so the partition does not depend on the executor.
     */
    void speciate(const std::map<int, Genome> &population, int generation,
                  const Executor &exec = {});

    const std::map<int, Species> &species() const { return species_; }
    std::map<int, Species> &mutableSpecies() { return species_; }

    size_t count() const { return species_.size(); }
    bool empty() const { return species_.empty(); }

    /** Remove a species (stagnation). */
    void remove(int species_key) { species_.erase(species_key); }

    /** Next species key to be issued (snapshot provenance). */
    int nextSpeciesKey() const { return nextSpeciesKey_; }

    /**
     * Snapshot restore: replace the whole species partition (member
     * lists, representatives, stagnation state) and the species-key
     * counter. Used by persist::* — a resumed run speciates and ages
     * species exactly as the uninterrupted run would.
     */
    void
    restore(std::map<int, Species> species, int next_species_key)
    {
        species_ = std::move(species);
        nextSpeciesKey_ = next_species_key;
    }

  private:
    const NeatConfig &cfg_;
    std::map<int, Species> species_;
    int nextSpeciesKey_ = 1;
};

} // namespace genesys::neat

#endif // GENESYS_NEAT_SPECIES_HH
