/**
 * @file
 * The GeneSys closed-loop system (Fig 1(b), Fig 6): NEAT population +
 * environment instances + the SoC hardware model, run generation by
 * generation. This is the library's headline public API:
 *
 *     genesys::core::System sys(genesys::core::SystemConfig{
 *         .envName = "CartPole_v0"});
 *     auto summary = sys.run();
 */

#ifndef GENESYS_CORE_GENESYS_HH
#define GENESYS_CORE_GENESYS_HH

#include <memory>

#include "core/workloads.hh"
#include "exec/eval_engine.hh"
#include "hw/soc.hh"
#include "neat/population.hh"
#include "obs/telemetry.hh"

namespace genesys::core
{

/** Everything needed to stand up a closed-loop run. */
struct SystemConfig
{
    std::string envName = "CartPole_v0";
    /** 0 = use workload default. */
    int maxGenerations = 0;
    int episodesPerEval = 1;
    uint64_t seed = 1;
    /**
     * Evaluation worker threads for the batched engine (exec::
     * EvalEngine). 1 = serial; 0 = hardware concurrency. Fitness and
     * RunSummary are bit-identical across thread counts for a given
     * seed.
     */
    int numThreads = 1;
    /**
     * Step a genome's episodes side by side, one lane each (see
     * exec::EvalEngineConfig::batchEpisodes). Each lane runs its own
     * forward pass, so lanes share the plan, not its arithmetic.
     * Results are bit-identical either way.
     */
    bool batchEpisodes = true;
    /**
     * Pack one episode each of many *different* genomes per lane
     * wave when episodesPerEval == 1 and `batchEpisodes` is set (see
     * exec::EvalEngineConfig::heterogeneousLanes). Results are
     * bit-identical either way.
     */
    bool heterogeneousLanes = true;
    /** Wave-shard lane width per worker (0 = engine default). */
    int waveLanes = 0;
    /**
     * Numerics tier for every compiled plan in the run (see
     * nn/numerics.hh): Reference is the bit-identical float golden
     * path; HwFaithful quantizes weights/bias/response and every node
     * activation through the Q6.10 gene format with branch-free
     * approximation kernels — the datapath the GeneSys silicon runs.
     * The tier is recorded in checkpoints and must match on resume.
     */
    nn::NumericsTier numericsTier = nn::NumericsTier::Reference;
    /** Simulate the SoC alongside the algorithm? */
    bool simulateHardware = true;
    hw::SocParams soc{};
    hw::EnergyParams energy{};
    /**
     * Telemetry: span tracing + metrics registry, written to one run
     * directory (see obs::TelemetryConfig). Off by default — the
     * null sink costs one predicted branch per instrumentation site
     * and is side-effect-free on results either way: golden digests
     * are bit-identical with telemetry on and off.
     */
    obs::TelemetryConfig telemetry{};
    /**
     * Checkpointing: when non-empty, a persist:: snapshot of the full
     * evolution state is written into this directory at the
     * generation barrier (created if missing). "" = off. Resuming
     * from a snapshot reproduces the uninterrupted run
     * bit-identically — see System::resumeFrom.
     */
    std::string checkpointDir;
    /**
     * Write a snapshot every N generations (default: every one). Must
     * be positive when checkpointDir is set; System's constructor
     * rejects anything else.
     */
    int checkpointEveryN = 1;
    /** Optional NEAT overrides applied after the workload defaults. */
    std::function<void(neat::NeatConfig &)> tweakNeat;
};

/**
 * Wall-clock breakdown of one closed-loop generation. Always
 * measured (a handful of steady_clock reads per generation — far
 * from any hot path), independent of whether telemetry sinks are
 * installed. The timing fields are intentionally NOT folded into the
 * golden digests: they are host-machine noise, not algorithm state.
 */
struct PhaseBreakdown
{
    /** Batched fitness evaluation (exec::EvalEngine). */
    double evaluateSeconds = 0.0;
    /**
     * Breeding the next generation: the serial selection and commit
     * steps around a child pass that runs on the engine's workers.
     */
    double reproduceSeconds = 0.0;
    /**
     * The parallel child pass inside reproduceSeconds: crossover and
     * mutation of every bred child, on the engine's workers.
     */
    double breedSeconds = 0.0;
    /**
     * Re-speciating the bred population; its distance pass runs on
     * the engine's workers.
     */
    double speciateSeconds = 0.0;
    /** Workload accounting + SoC simulation. */
    double reportSeconds = 0.0;
    /** Whole stepGeneration() call. */
    double wallSeconds = 0.0;
    /**
     * CPU seconds spent compiling plans this generation, summed
     * across workers (can exceed wallSeconds on many threads).
     */
    double planCompileCpuSeconds = 0.0;
    /**
     * Fraction of the generation's worker-seconds the pool's workers
     * spent *outside* parallel bodies — evaluation, breeding and
     * speciation all count as busy — the measured generation-barrier
     * idle cost: 1 - busyNsDelta / (wallSeconds * numThreads),
     * clamped to [0, 1]. It grows with the serial steps between the
     * parallel passes (selection, commit, report) and with workers
     * waiting on a straggler.
     */
    double barrierIdleFraction = 0.0;
};

/**
 * Wall-clock breakdown of System construction. Measured like
 * PhaseBreakdown, and published as startup.*_seconds gauges when a
 * metrics registry is active.
 */
struct StartupPhases
{
    /** Creating the generation-0 population. */
    double populationSeconds = 0.0;
    /** Speciating it for the first time. */
    double speciateSeconds = 0.0;
    /** Building the evaluation engine and starting its pool. */
    double engineSeconds = 0.0;
    /** The whole constructor, from its first statement. */
    double wallSeconds = 0.0;
};

/**
 * Wall-clock breakdown of one successful System::resumeFrom call,
 * published as resume.*_seconds gauges when a registry is active.
 */
struct ResumePhases
{
    /** Reading, digest-checking and parsing the snapshot file. */
    double readSeconds = 0.0;
    /** Provenance checks and Genome::validate on every genome. */
    double validateSeconds = 0.0;
    /** Applying the snapshot to the population and the counters. */
    double restoreSeconds = 0.0;
    /** The whole resumeFrom() call. */
    double wallSeconds = 0.0;
};

/** Per-generation record: algorithm stats + hardware stats. */
struct GenerationReport
{
    neat::GenerationStats algo;
    hw::SocGenStats hw;
    /** Mean levelized dense cells per genome (GPU_a storage unit). */
    double compactCellsPerGenome = 0.0;
    /** Mean padded sparse cells per genome (GPU_b storage unit). */
    double sparseCellsPerGenome = 0.0;
    /** Forward passes executed this generation. */
    long inferenceSteps = 0;
    /** Longest single episode this generation (BSP lockstep count). */
    long maxEpisodeSteps = 0;
    /** Mean useful MACs per forward pass. */
    double macsPerStep = 0.0;
    /**
     * How this generation's batch mapped onto EvE PE-array waves
     * (occupancy + BSP lockstep supersteps per wave), plus the
     * measured lane occupancy of the episode loop.
     */
    exec::BatchStats batches;
    /** Phase wall-clock breakdown of this generation. */
    PhaseBreakdown phases;
};

/** Whole-run outcome. */
struct RunSummary
{
    bool solved = false;
    int generations = 0;
    double bestFitness = 0.0;
    neat::Genome bestGenome;

    /** Aggregate hardware totals across the run. */
    double totalEvolutionEnergyJ = 0.0;
    double totalInferenceEnergyJ = 0.0;
    double totalEvolutionSeconds = 0.0;
    double totalInferenceSeconds = 0.0;
};

/** The closed-loop system. */
class System
{
  public:
    explicit System(SystemConfig cfg);
    ~System();

    /** Advance one generation. Returns true when solved. */
    bool stepGeneration();

    /** Run to the target fitness or the generation cap. */
    RunSummary run();

    const std::vector<GenerationReport> &reports() const
    {
        return reports_;
    }
    const neat::Population &population() const { return *population_; }
    const neat::NeatConfig &neatConfig() const { return neatCfg_; }
    const env::Environment &environment() const { return *env_; }
    const SystemConfig &config() const { return cfg_; }
    const exec::EvalEngine &evalEngine() const { return *engine_; }
    /** The run's telemetry session (disabled unless configured). */
    const obs::Telemetry &telemetry() const { return *telemetry_; }
    /** The run's numerics tier (SystemConfig::numericsTier). */
    nn::NumericsTier numericsTier() const { return cfg_.numericsTier; }

    /** Where construction spent its wall-clock. */
    const StartupPhases &startupPhases() const { return startup_; }
    /** The last successful resumeFrom()'s phases (zeros before one). */
    const ResumePhases &lastResumePhases() const { return resume_; }

    /** Replay the current best genome; returns its episode fitness. */
    env::EpisodeResult replayBest(uint64_t seed);

    /**
     * Resume this (freshly constructed, un-stepped) System from a
     * snapshot file written by a previous run's checkpointing. The
     * file is parsed and fully validated first — magic, version,
     * digest, chunk structure, and provenance against this System's
     * config (environment, seed, population shape) — and only then
     * applied, so a persist::SnapshotError (thrown on any mismatch)
     * leaves the System exactly as constructed. After a successful
     * resume, stepGeneration() continues from the checkpointed
     * generation barrier and the run is bit-identical to the
     * uninterrupted one; run() executes cfg.maxGenerations *further*
     * generations, so a resumed run wanting the original horizon
     * passes (total - already-run) as maxGenerations.
     */
    void resumeFrom(const std::string &path);

  private:
    /** Snapshot the generation barrier into cfg_.checkpointDir. */
    void writeCheckpoint();

    SystemConfig cfg_;
    WorkloadSpec spec_;
    neat::NeatConfig neatCfg_;
    /**
     * Declared before engine_ on purpose: members destroy in reverse
     * order, so the engine (which joins its pool threads) goes away
     * first and no worker can race the telemetry sinks being
     * uninstalled and flushed.
     */
    std::unique_ptr<obs::Telemetry> telemetry_;
    std::unique_ptr<env::Environment> env_;
    std::unique_ptr<neat::Population> population_;
    std::unique_ptr<exec::EvalEngine> engine_;
    hw::GenesysSoc soc_;
    std::vector<GenerationReport> reports_;
    StartupPhases startup_;
    ResumePhases resume_;
    bool solved_ = false;
};

} // namespace genesys::core

#endif // GENESYS_CORE_GENESYS_HH
