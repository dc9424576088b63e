/**
 * @file
 * The sort-based reference form of Genome::createNew. Test-only
 * oracle: every gene is drawn in the library's order with a full
 * Box-Muller variate per float attribute (`mean + stdev * gaussian()`,
 * never skipped), the connections are collected in draw order and
 * sorted into the gene map once. The library writes each connection
 * straight into its closed-form slot and skips the variates of
 * zero-stdev attributes; the generation-0 tests check the two agree
 * bit for bit, RNG state and node indexer included.
 */

#ifndef GENESYS_ORACLE_NEAT_CREATE_NEW_HH
#define GENESYS_ORACLE_NEAT_CREATE_NEW_HH

#include "common/rng.hh"
#include "neat/genome.hh"

namespace genesys::neat::oracle
{

/** Genome::createNew by draw, collect and sort. */
Genome createNew(int key, const NeatConfig &cfg, NodeIndexer &indexer,
                 XorWow &rng);

} // namespace genesys::neat::oracle

#endif // GENESYS_ORACLE_NEAT_CREATE_NEW_HH
