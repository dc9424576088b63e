/**
 * @file
 * EvalEngine — the parallel batched evaluation engine (the software
 * analogue of GeneSys' population-level parallelism, Table III). A
 * whole NEAT generation is submitted as one batch and evaluated in
 * one pass with one barrier: a persistent thread pool runs one
 * episode loop (env::evaluateWave) per worker, each over a private
 * shard of environment instances (EnvPool), so the episode hot loop
 * takes no locks. The loops draw from one generation-wide atomic
 * cursor over the genomes. A worker with enough idle lanes claims the
 * next genome, compiles its plan on claim into the genome's slot of
 * nn::PlanCache (elites' slots start filled) and starts the genome's
 * episodes on its own lanes, stepping them in BSP lockstep and
 * refilling a lane as soon as its episode ends — mirroring the
 * paper's PE-array wave execution, where every PE stays busy on some
 * genome. Episode results land in per-(genome, episode) slots, and
 * after the pass env::reduceEpisodes turns each genome's slots into
 * its EvalDetail — the same reduction the test oracle's serial loop
 * ends in. The caller's SeedFn maps (genome key, episode) to each
 * episode's seed; core::System passes sharedEpisodeSeeds of the
 * generation's derived seed, so every genome of a generation plays the
 * same episodes. Results are a pure function of (genome, seed) —
 * bit-identical whether the batch runs on 1 thread or N, and
 * whichever worker claims which genome.
 *
 * The engine also records how the batch would map onto the EvE
 * PE-array: genomes are grouped into waves of `waveWidth` (one PE
 * per genome), each wave running in BSP lockstep until its longest
 * episode finishes. These BatchStats are reported, not modelled:
 * core::System surfaces them through GenerationReport::batches and
 * the metrics registry, while hw::GenesysSoc::simulateGeneration
 * reads only the evolution trace and the plans' inference work.
 */

#ifndef GENESYS_EXEC_EVAL_ENGINE_HH
#define GENESYS_EXEC_EVAL_ENGINE_HH

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "env/runner.hh"
#include "exec/env_pool.hh"
#include "exec/thread_pool.hh"
#include "neat/population.hh"
#include "nn/plan_cache.hh"

namespace genesys::exec
{

/** Evaluation outcome for one genome in a batch. */
struct GenomeEvalResult
{
    int genomeKey = -1;
    env::EvalDetail detail;
    /**
     * The compiled plan that executed the episodes — shared with the
     * engine's per-generation cache. Carries the levelized ADAM
     * schedule (plan->schedule()) so workload accounting reads the
     * exact structure the software executed.
     */
    std::shared_ptr<const nn::CompiledPlan> plan;
};

/**
 * One EvE PE-array wave: up to `waveWidth` genomes evaluated in BSP
 * lockstep — every PE steps its episode each superstep, and the wave
 * retires when its longest episode finishes.
 */
struct BatchWave
{
    /** Genomes mapped onto this wave (its occupancy). */
    int genomes = 0;
    /** Supersteps the wave runs: max inferences over its genomes. */
    long lockstepSteps = 0;
    /** Useful forward passes retired by the wave. */
    long totalInferences = 0;
};

/** How one generation's batch mapped onto PE-array waves. */
struct BatchStats
{
    int waveWidth = 0;
    std::vector<BatchWave> waves;

    /**
     * Measured lane occupancy of the episode loop (env::evaluateWave),
     * aggregated across every worker's loop. `laneCount` is the lane
     * width of each worker shard; the remaining counters sum the
     * per-worker WaveStats — see env::WaveStats for field semantics.
     */
    int laneCount = 0;
    long waveSupersteps = 0;
    long waveLaneSlotSteps = 0;
    long waveActiveLaneSteps = 0;
    long waveRefills = 0;

    /**
     * Busy time of each worker within the evaluation pass: the
     * slowest worker's and the mean over all workers, in ms (two
     * clock reads per worker per generation — ThreadPool::jobBusyNs).
     * Equal at one thread; max well above mean means the generation
     * waited on a straggler.
     */
    double workerBusyMaxMs = 0.0;
    double workerBusyMeanMs = 0.0;

    /** Total BSP supersteps across all waves (waves run back to back). */
    long lockstepSteps() const;
    /** Useful forward passes across all waves. */
    long totalInferences() const;
    /**
     * Fraction of wave lane slots that held a live episode
     * (waveActiveLaneSteps / waveLaneSlotSteps); 0 when nothing ran.
     * The headline occupancy counter: > 0.9 on an episodesPerEval ==
     * 1 batch large enough to keep the refill queue full.
     */
    double laneOccupancy() const;
};

/** Engine configuration. */
struct EvalEngineConfig
{
    /** Table I environment name; each worker gets its own instances. */
    std::string envName = "CartPole_v0";
    /** Worker threads (caller included). 0 = hardware concurrency. */
    int numThreads = 1;
    /** Episodes per genome evaluation. */
    int episodes = 1;
    /**
     * Genomes per EvE PE-array wave for the batch statistics.
     * 0 = the whole generation fits one wave.
     */
    int waveWidth = 0;
    /**
     * Step a genome's `episodes` side by side, one shard lane each,
     * instead of one after another on a single lane. Each lane runs
     * its own forward pass: side-by-side lanes share the genome's
     * plan, not its arithmetic. Bit-identical results either way.
     */
    bool batchEpisodes = true;
    /**
     * Give each worker `waveLanes` lanes at `episodes == 1` (with
     * `batchEpisodes` set): the worker claims a genome whenever a lane
     * frees, so its lanes hold episodes of different genomes. Off,
     * or at `episodes > 1`, a shard holds one genome's episodes.
     * Results are bit-identical either way.
     */
    bool heterogeneousLanes = true;
    /**
     * Lanes per worker shard when `heterogeneousLanes` applies
     * (0 = 2, the best of 1, 2 and 8 on the AirRaid benchmark of
     * record: few plans in flight stay cache-resident and the drain
     * tail is short). The engine-wide lane count is numThreads *
     * waveLanes. Resolved to 1 when `heterogeneousLanes` does not
     * apply.
     */
    int waveLanes = 0;
    /**
     * Numerics tier every genome compiles under (see nn/numerics.hh):
     * Reference is the bit-identical float path; HwFaithful quantizes
     * attributes and activations through the Q6.10 gene format and
     * runs the branch-free approximation kernels. Tiers are distinct
     * numerics by design — digests match within a tier, not across.
     * core::System copies SystemConfig::numericsTier here.
     */
    nn::NumericsTier numericsTier = nn::NumericsTier::Reference;
};

/**
 * Persistent batch evaluator: construct once per run, submit one
 * generation at a time.
 */
class EvalEngine
{
  public:
    /** Maps (genomeKey, episode index) to an episode seed. */
    using SeedFn = std::function<uint64_t(int genomeKey, int episode)>;

    explicit EvalEngine(EvalEngineConfig cfg);

    /**
     * Evaluate one generation's genomes concurrently. Results are
     * returned in submission order regardless of which worker ran
     * which genome; given the same seeds they are bit-identical
     * across thread counts.
     */
    std::vector<GenomeEvalResult>
    evaluateGeneration(const std::vector<neat::GenomeHandle> &batch,
                       const neat::NeatConfig &cfg,
                       const SeedFn &seedFor);

    /**
     * The default seed policy: every genome sees the same episode
     * seeds (the paper's level playing field — the population is
     * ranked on identical episode sets).
     */
    static SeedFn sharedEpisodeSeeds(uint64_t base);

    /** Wave mapping of the most recent batch. */
    const BatchStats &lastBatchStats() const { return lastBatch_; }

    /**
     * Per-episode results of the most recent batch: genome g's
     * episodes, in episode order, at [g * episodes(), (g + 1) *
     * episodes()). Valid until the next evaluateGeneration call.
     */
    std::span<const env::EpisodeResult> episodeResults() const
    {
        return episodeSlots_;
    }

    /**
     * The plan slots: reset at the top of every evaluateGeneration
     * call to one slot per submitted genome, so its size is bounded
     * by the generation's batch size while elite genomes (same key as
     * the previous generation) keep their compiled plan across
     * generations — zero recompiles for elites.
     */
    const nn::PlanCache &planCache() const { return planCache_; }

    int numThreads() const { return pool_.size(); }
    int episodes() const { return cfg_.episodes; }
    const EvalEngineConfig &config() const { return cfg_; }

    /**
     * Aggregate nanoseconds the pool's workers (caller included)
     * spent inside parallel bodies — see ThreadPool::busyNs(). That
     * covers evaluation and, once core::System installs the engine as
     * the population's executor, breeding and speciation too.
     * core::System differences this across a generation to compute
     * the barrier-idle fraction.
     */
    uint64_t workerBusyNs() const { return pool_.busyNs(); }

    /**
     * Is `heterogeneousLanes` in effect? True iff batching is
     * enabled, `heterogeneousLanes` is set and the config evaluates
     * one episode per genome; the shard is then `waveLanes` wide,
     * otherwise it holds one genome's episodes.
     */
    bool usesHeterogeneousWaves() const;

    /**
     * parallelFor on the engine's pool with exception containment: a
     * throwing item (e.g. a plan-compile validation panic) is
     * captured and rethrown on the calling thread after the batch
     * joins, instead of escaping a pool worker and terminating the
     * process. First exception wins; remaining items still run (their
     * results are discarded by the rethrow). core::System also runs
     * breeding and speciation through it, so their time counts as
     * pool work in workerBusyNs().
     */
    void runParallel(std::size_t count,
                     const std::function<void(std::size_t item,
                                              int worker)> &body);

  private:
    /**
     * The evaluation pass: every worker's episode loop claims genomes
     * from one queue, compiling each on claim; then each genome's
     * EvalDetail is assembled from its episode slots.
     */
    void evaluateWaves(const std::vector<neat::GenomeHandle> &batch,
                       const neat::NeatConfig &cfg,
                       const SeedFn &seedFor,
                       std::vector<GenomeEvalResult> &results);

    /**
     * Publish the batch that just finished into the active
     * MetricsRegistry (no-op when none is installed): BatchStats
     * occupancy/superstep counters, plan-cache compile/hit/
     * carry-over deltas since the last publish, and the episode-step
     * histogram over episodeResults(). Runs once per generation, after
     * the parallel phase.
     */
    void publishMetrics(const std::vector<GenomeEvalResult> &results);

    EvalEngineConfig cfg_;
    ThreadPool pool_;
    EnvPool envs_;
    BatchStats lastBatch_;
    nn::PlanCache planCache_;
    /** Plan-cache counter snapshots from the last publishMetrics. */
    long seenCompiles_ = 0;
    long seenHits_ = 0;
    long seenCarriedOver_ = 0;
    long seenCompileNs_ = 0;
    /**
     * One wave scratch per worker, reused across generations, so the
     * runner's lane buffers stop allocating once they have warmed up.
     */
    std::vector<env::WaveScratch> waveScratch_;
    /** Per-(genome, episode) results of the current pass. */
    std::vector<env::EpisodeResult> episodeSlots_;
};

} // namespace genesys::exec

#endif // GENESYS_EXEC_EVAL_ENGINE_HH
