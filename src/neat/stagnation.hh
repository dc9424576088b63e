/**
 * @file
 * Species stagnation tracking: species whose fitness has not improved
 * for cfg.maxStagnation generations are removed from reproduction
 * (with the top cfg.speciesElitism species always protected).
 */

#ifndef GENESYS_NEAT_STAGNATION_HH
#define GENESYS_NEAT_STAGNATION_HH

#include <vector>

#include "neat/species.hh"

namespace genesys::neat
{

/**
 * One species' standing in a generation: its members' fitness summary
 * (reproduction's fitness sharing reads these, so member fitnesses are
 * read once per generation) and the verdict. The species' own fitness
 * is its best member's, memberMax.
 */
struct SpeciesStanding
{
    int key = -1;
    /** Mean member fitness, summed in member order. */
    double memberMean = 0.0;
    double memberMin = 0.0;
    double memberMax = 0.0;
    bool stagnant = false;
};

/** Stagnation policy over a SpeciesSet. */
class Stagnation
{
  public:
    explicit Stagnation(const NeatConfig &cfg) : cfg_(cfg) {}

    /**
     * Score every species from its members' fitnesses, advance its
     * best fitness and last-improved generation, and flag stagnant
     * species. Returns one standing per species, sorted by ascending
     * species fitness, matching neat-python's DefaultStagnation.
     */
    std::vector<SpeciesStanding>
    update(SpeciesSet &species, const std::map<int, Genome> &population,
           int generation) const;

  private:
    const NeatConfig &cfg_;
};

} // namespace genesys::neat

#endif // GENESYS_NEAT_STAGNATION_HH
