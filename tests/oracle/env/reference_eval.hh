/**
 * @file
 * The serial episode loop and genome-level evaluation through the
 * reference interpreters: the oracle the library's one episode loop,
 * env::evaluateWave, and the engine built on it are diffed against.
 *
 * The loop runs one episode at a time, one policy at a time: reset
 * the environment from the episode seed, then step it with the
 * action decoded from the policy's outputs until the episode ends.
 * runEpisode and the plan form of evaluateDetailed drive it with a
 * compiled plan; the genome form drives the same loop with the
 * interpreters, so only the phenotype differs. Every form reduces its
 * episodes with env::reduceEpisodes, the reduction the engine uses.
 */

#ifndef GENESYS_ORACLE_ENV_REFERENCE_EVAL_HH
#define GENESYS_ORACLE_ENV_REFERENCE_EVAL_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "env/runner.hh"
#include "exec/eval_engine.hh"

namespace genesys::oracle
{

/** A genome's EvalDetail with the episode results it reduces. */
struct DetailedEval : env::EvalDetail
{
    /** Per-episode results, in episode order. */
    std::vector<env::EpisodeResult> episodes;
};

/**
 * The engine's side of the comparison: each result's EvalDetail with
 * its episodes from `engine.episodeResults()`. Call right after the
 * evaluateGeneration that returned `results`.
 */
std::vector<DetailedEval>
engineDetails(const exec::EvalEngine &engine,
              const std::vector<exec::GenomeEvalResult> &results);

/**
 * Run one episode of `env` from `seed` through a compiled plan, for
 * feed-forward and recurrent plans alike (recurrent state is reset at
 * episode start and ticked per environment step). All mutable
 * evaluation state lives in `scratch`.
 */
env::EpisodeResult runEpisode(env::Environment &env,
                              const nn::CompiledPlan &plan,
                              nn::PlanScratch &scratch, uint64_t seed);

/**
 * Evaluate a compiled plan over explicit per-episode seeds, one
 * episode after another on `env` with one scratch. Mutates only
 * `env`.
 */
DetailedEval evaluateDetailed(env::Environment &env,
                              const nn::CompiledPlan &plan,
                              const std::vector<uint64_t> &episodeSeeds);

/**
 * Evaluate `genome` over explicit per-episode seeds through the
 * interpreter matching the config's mode (FeedForwardNetwork, or
 * RecurrentNetwork reset at each episode start), under `tier`'s
 * numerics. Mutates only `env`.
 */
DetailedEval
evaluateDetailed(env::Environment &env, const neat::Genome &genome,
                 const neat::NeatConfig &cfg,
                 const std::vector<uint64_t> &episodeSeeds,
                 nn::NumericsTier tier = nn::NumericsTier::Reference);

/**
 * The serial loop's answer for a wave: each item's episode run by
 * runEpisode on `env`, in item order (the order the vector form of
 * env::evaluateWave returns its episodes in).
 */
std::vector<env::EpisodeResult>
serialEpisodes(env::Environment &env, std::span<const env::WaveItem> items);

/**
 * The serial oracle for one genome of an engine batch: its plan
 * compiled under `tier`, run on a fresh `envName` instance over the
 * seeds `seedFor(key, 0 .. episodes - 1)`, one episode after another.
 */
DetailedEval serialDetail(const std::string &envName,
                          const neat::NeatConfig &cfg,
                          const neat::GenomeHandle &genome, int episodes,
                          const exec::EvalEngine::SeedFn &seedFor,
                          nn::NumericsTier tier);

/** serialDetail for every genome of `batch`, in batch order. */
std::vector<DetailedEval>
serialDetails(const std::string &envName, const neat::NeatConfig &cfg,
              const std::vector<neat::GenomeHandle> &batch, int episodes,
              const exec::EvalEngine::SeedFn &seedFor,
              nn::NumericsTier tier);

/**
 * Are two episodes bit-identical? Every field is compared, the
 * floating ones by bit pattern.
 */
bool identical(const env::EpisodeResult &a, const env::EpisodeResult &b);

} // namespace genesys::oracle

#endif // GENESYS_ORACLE_ENV_REFERENCE_EVAL_HH
