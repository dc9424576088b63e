/**
 * @file
 * Fixtures the evaluation-path suites and bench_micro_kernels build
 * their cases from: genomes grown by mutation or laid out dense, the
 * handles an engine batch takes, lane environments for
 * env::evaluateWave, and one engine pass paired with its per-episode
 * results. Nothing here asserts; the suites compare what these return
 * against the serial loop in reference_eval.hh.
 */

#ifndef GENESYS_ORACLE_ENV_EVAL_FIXTURES_HH
#define GENESYS_ORACLE_ENV_EVAL_FIXTURES_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "env/reference_eval.hh"
#include "exec/eval_engine.hh"

namespace genesys::oracle
{

/** Genomes and the config they were grown under. */
struct GenomeSet
{
    neat::NeatConfig cfg;
    std::vector<neat::Genome> genomes;
};

/**
 * `count` genomes keyed 0 .. count - 1, each created under `cfg` and
 * then mutated `mutations` times, all from one XorWow(seed) stream.
 */
GenomeSet growGenomes(const neat::NeatConfig &cfg, int count,
                      uint64_t seed, int mutations);

/** growGenomes' first genome: the one genome XorWow(seed) grows. */
neat::Genome grownGenome(const neat::NeatConfig &cfg, int mutations,
                         uint64_t seed);

/**
 * A dense genome: `hidden` hidden nodes in one layer, every input
 * feeding each and each feeding every output, biases and weights
 * drawn from XorWow(seed) in node order — a known topology rather
 * than whatever mutation happens to grow. bench_micro_kernels times
 * denseGenome(8 -> 4, 64, 42), the genome test_compiled_plan pins.
 */
neat::Genome denseGenome(const neat::NeatConfig &cfg, int hidden,
                         uint64_t seed);

/**
 * The CartPole set the evaluation-path suites share: weights drawn at
 * stdev 1 instead of the paper's all-zero init, so episodes take
 * varied lengths, then 10 mutations per genome.
 */
GenomeSet makeGenomes(int count, uint64_t seed, bool feedForward = true);

/**
 * Independent episodes per genome, unlike the engine's shared-seed
 * default: a SplitMix-style mixer, two chained deriveSeed() (SplitMix64
 * finalizer) rounds, one per (genome, episode) coordinate. The suites
 * use it to give every genome a different episode set.
 */
exec::EvalEngine::SeedFn perGenomeSeeds(uint64_t base);

/** Batch handles for `genomes`, genome i under key i. */
std::vector<neat::GenomeHandle>
handlesOf(const std::vector<neat::Genome> &genomes);

/** `width` fresh `envName` instances and the lane view evaluateWave takes. */
struct Lanes
{
    std::vector<std::unique_ptr<env::Environment>> owned;
    std::vector<env::Environment *> lanes;
};

Lanes makeLanes(const std::string &envName, int width);

/** One engine pass: its results and each genome's episode slots. */
struct EngineRun
{
    std::vector<exec::GenomeEvalResult> results;
    std::vector<DetailedEval> details;
};

EngineRun evaluate(exec::EvalEngine &engine,
                   const std::vector<neat::GenomeHandle> &batch,
                   const neat::NeatConfig &cfg,
                   const exec::EvalEngine::SeedFn &seedFor);

} // namespace genesys::oracle

#endif // GENESYS_ORACLE_ENV_EVAL_FIXTURES_HH
