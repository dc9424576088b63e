#include "neat/stagnation.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace genesys::neat
{

std::vector<SpeciesStanding>
Stagnation::update(SpeciesSet &species,
                   const std::map<int, Genome> &population,
                   int generation) const
{
    std::vector<SpeciesStanding> standings;
    standings.reserve(species.count());
    for (auto &[sk, sp] : species.mutableSpecies()) {
        GENESYS_ASSERT(!sp.memberKeys.empty(),
                       "species " << sk << " has no members");
        SpeciesStanding st;
        st.key = sk;
        st.memberMin = std::numeric_limits<double>::infinity();
        st.memberMax = -std::numeric_limits<double>::infinity();
        double sum = 0.0;
        for (int mk : sp.memberKeys) {
            auto it = population.find(mk);
            GENESYS_ASSERT(it != population.end(),
                           "species member " << mk << " not in population");
            GENESYS_ASSERT(it->second.hasFitness(),
                           "species member " << mk << " has no fitness");
            const double f = it->second.fitness();
            sum += f;
            st.memberMin = std::min(st.memberMin, f);
            st.memberMax = std::max(st.memberMax, f);
        }
        st.memberMean = sum / static_cast<double>(sp.memberKeys.size());
        if (st.memberMax > sp.bestFitness) {
            sp.bestFitness = st.memberMax;
            sp.lastImprovedGeneration = generation;
        }
        st.stagnant =
            (generation - sp.lastImprovedGeneration) > cfg_.maxStagnation;
        standings.push_back(st);
    }

    // Ascending fitness so the best species are considered for
    // protection last. Stable, so species of equal fitness stay in
    // key order whatever their number and the standard library.
    std::stable_sort(standings.begin(), standings.end(),
                     [](const SpeciesStanding &a, const SpeciesStanding &b) {
                         return a.memberMax < b.memberMax;
                     });

    // The top `speciesElitism` species (by fitness) are never marked
    // stagnant.
    const size_t protect =
        std::min(standings.size(),
                 static_cast<size_t>(std::max(0, cfg_.speciesElitism)));
    for (size_t i = standings.size() - protect; i < standings.size(); ++i)
        standings[i].stagnant = false;
    return standings;
}

} // namespace genesys::neat
