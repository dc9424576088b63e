/**
 * @file
 * Genome-level evaluation through the reference interpreters: the
 * oracle the compiled-plan episode paths (env::evaluateDetailed,
 * env::evaluateWave, the engine) are diffed against. Runs on the
 * library's own serial episode loop, so only the phenotype differs.
 */

#ifndef GENESYS_ORACLE_ENV_REFERENCE_EVAL_HH
#define GENESYS_ORACLE_ENV_REFERENCE_EVAL_HH

#include <cstdint>
#include <vector>

#include "env/runner.hh"

namespace genesys::oracle
{

/**
 * Evaluate `genome` over explicit per-episode seeds through the
 * interpreter matching the config's mode (FeedForwardNetwork, or
 * RecurrentNetwork reset at each episode start). Mutates only `env`.
 */
env::EvalDetail evaluateDetailed(env::Environment &env,
                                 const neat::Genome &genome,
                                 const neat::NeatConfig &cfg,
                                 const std::vector<uint64_t> &episodeSeeds);

} // namespace genesys::oracle

#endif // GENESYS_ORACLE_ENV_REFERENCE_EVAL_HH
