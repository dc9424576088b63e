/**
 * @file
 * The serial reference form of SpeciesSet::speciate. Test-only
 * oracle: the same two steps, run as plain loops that compute each
 * distance on the calling thread where the procedure first needs it,
 * with no distance table. The library computes every distance up
 * front on its executor; the speciation tests check the two agree on
 * species keys, representatives and member lists.
 */

#ifndef GENESYS_ORACLE_NEAT_SPECIATE_HH
#define GENESYS_ORACLE_NEAT_SPECIATE_HH

#include <map>

#include "neat/species.hh"

namespace genesys::neat::oracle
{

/** SpeciesSet::speciate(population, generation) as a serial loop. */
void speciate(SpeciesSet &set, const std::map<int, Genome> &population,
              int generation, const NeatConfig &cfg);

} // namespace genesys::neat::oracle

#endif // GENESYS_ORACLE_NEAT_SPECIATE_HH
