#include "core/genesys.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/logging.hh"
#include "nn/compiled_plan.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "persist/snapshot.hh"

namespace genesys::core
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** A NEAT executor that fans out over `engine`'s workers. */
neat::Executor
executorOn(exec::EvalEngine &engine)
{
    return [&engine](std::size_t count,
                     const std::function<void(std::size_t)> &body) {
        engine.runParallel(count, [&body](std::size_t i, int) { body(i); });
    };
}

} // namespace

System::System(SystemConfig cfg)
    : cfg_(std::move(cfg)), spec_(workload(cfg_.envName)),
      neatCfg_(neatConfigFor(spec_)), soc_(cfg_.soc, cfg_.energy)
{
    const auto wall0 = Clock::now();
    env_ = env::makeEnvironment(cfg_.envName);
    if (cfg_.maxGenerations > 0)
        spec_.maxGenerations = cfg_.maxGenerations;
    if (cfg_.episodesPerEval > 0)
        spec_.episodes = cfg_.episodesPerEval;
    if (cfg_.tweakNeat)
        cfg_.tweakNeat(neatCfg_);

    // Resolve GENESYS_LOG_LEVEL now: a bad value is a user error and
    // should fatal here, not from whichever later inform()/warn()
    // call happens to read it first (possibly inside a destructor,
    // where the throw would terminate instead).
    logLevel();

    // Telemetry session first, so the sinks are installed before any
    // pool worker spawns (workers name their timeline rows on their
    // first drain).
    telemetry_ = std::make_unique<obs::Telemetry>(cfg_.telemetry);

    // A bad checkpoint interval is a fatal configuration error here,
    // not at the first generation barrier.
    if (!cfg_.checkpointDir.empty()) {
        if (cfg_.checkpointEveryN <= 0) {
            fatal("bad SystemConfig::checkpointEveryN " +
                  std::to_string(cfg_.checkpointEveryN) +
                  " with a checkpoint directory set (expected a "
                  "positive integer)");
        }
        std::filesystem::create_directories(cfg_.checkpointDir);
    }

    const auto engine0 = Clock::now();
    // Batched evaluation engine: one private environment instance per
    // worker; waves sized to the EvE PE array so batch statistics map
    // 1:1 onto PE-array waves.
    exec::EvalEngineConfig ecfg;
    ecfg.envName = cfg_.envName;
    ecfg.numThreads = cfg_.numThreads;
    ecfg.episodes = spec_.episodes;
    ecfg.waveWidth = cfg_.soc.numEvePe;
    ecfg.batchEpisodes = cfg_.batchEpisodes;
    ecfg.heterogeneousLanes = cfg_.heterogeneousLanes;
    ecfg.waveLanes = cfg_.waveLanes;
    ecfg.numericsTier = cfg_.numericsTier;
    engine_ = std::make_unique<exec::EvalEngine>(std::move(ecfg));
    startup_.engineSeconds = secondsSince(engine0);

    // Breeding and speciation fan out over the same workers, between
    // evaluations, as EvE's PE array breeds one child per PE. The
    // engine comes first so generation 0's speciation does too.
    population_ = std::make_unique<neat::Population>(neatCfg_, cfg_.seed,
                                                     executorOn(*engine_));
    startup_.populationSeconds =
        population_->lastStepPhases().reproduceSeconds;
    startup_.speciateSeconds = population_->lastStepPhases().speciateSeconds;
    startup_.wallSeconds = secondsSince(wall0);

    if (auto *reg = obs::MetricsRegistry::active()) {
        reg->gauge("startup.population_seconds")
            .set(startup_.populationSeconds);
        reg->gauge("startup.speciate_seconds").set(startup_.speciateSeconds);
        reg->gauge("startup.engine_seconds").set(startup_.engineSeconds);
        reg->gauge("startup.wall_seconds").set(startup_.wallSeconds);
    }
}

System::~System() = default;

bool
System::stepGeneration()
{
    if (solved_)
        return true;

    const int gen = population_->generation();
    GenerationReport report;
    const auto wall0 = Clock::now();
    const uint64_t busy0 = engine_->workerBusyNs();
    const long compile_ns0 = engine_->planCache().compileNs();
    obs::Span gen_span("generation", "phase", gen);

    // Inference phase: every genome runs its episodes (steps 1-6 of
    // the walkthrough), fanned out across the engine's workers as one
    // batch. While collecting results we gather the ADAM workload
    // descriptors in submission (ascending genome key) order, so the
    // hardware model sees the same stream regardless of thread count.
    std::vector<hw::GenomeInferenceWork> inference_work;
    inference_work.reserve(population_->genomes().size());
    long steps = 0;
    long max_episode_steps = 0;
    double macs = 0.0;
    double compact_cells = 0.0;
    double sparse_cells = 0.0;
    const size_t pop_size = population_->genomes().size();
    exec::BatchStats batch_stats;

    // Level playing field: every genome in the generation sees the
    // same per-episode seeds, derived from (run seed, generation).
    const auto seed_for = exec::EvalEngine::sharedEpisodeSeeds(
        deriveSeed(cfg_.seed, static_cast<uint64_t>(gen)));

    auto batch_fitness =
        [&](const std::vector<neat::GenomeHandle> &batch) {
            const auto e0 = Clock::now();
            obs::Span span("evaluate", "phase", gen);
            const auto results =
                engine_->evaluateGeneration(batch, neatCfg_, seed_for);
            batch_stats = engine_->lastBatchStats();
            report.phases.evaluateSeconds = secondsSince(e0);

            std::vector<double> fits;
            fits.reserve(results.size());
            for (size_t i = 0; i < results.size(); ++i) {
                const env::EvalDetail &d = results[i].detail;
                fits.push_back(d.fitness);
                steps += d.inferences;
                macs += static_cast<double>(d.macs);
                max_episode_steps =
                    std::max(max_episode_steps,
                             static_cast<long>(d.maxEpisodeSteps));

                if (cfg_.simulateHardware) {
                    const neat::Genome &g = *batch[i].genome;
                    hw::GenomeInferenceWork w;
                    // The levelized schedule comes from the same
                    // compiled plan that executed the episodes, so
                    // the ADAM cost model and the software path agree
                    // by construction.
                    w.schedule = results[i].plan->schedule();
                    w.inferences = d.inferences;
                    compact_cells +=
                        static_cast<double>(w.schedule.denseCells());
                    int max_key = 0;
                    for (const auto &[nk, ng] : g.nodes())
                        max_key = std::max(max_key, nk);
                    const double dim = max_key + neatCfg_.numInputs + 1;
                    sparse_cells += dim * dim;
                    inference_work.push_back(std::move(w));
                }
            }
            return fits;
        };

    const bool done = population_->stepBatch(batch_fitness);
    solved_ = done;

    report.algo = population_->history().back();
    report.inferenceSteps = steps;
    report.maxEpisodeSteps = max_episode_steps;
    report.batches = std::move(batch_stats);
    report.macsPerStep =
        steps > 0 ? macs / static_cast<double>(steps) : 0.0;
    report.compactCellsPerGenome =
        compact_cells / static_cast<double>(pop_size);
    report.sparseCellsPerGenome =
        sparse_cells / static_cast<double>(pop_size);

    if (cfg_.simulateHardware) {
        const auto h0 = Clock::now();
        obs::Span span("report", "phase", gen);
        // Evolution trace that bred the *next* generation (empty when
        // solved on this one). The report's op counters are aligned
        // to the same trace so runtime and op columns agree.
        static const neat::EvolutionTrace empty_trace;
        const neat::EvolutionTrace &trace =
            (!done && !population_->traces().empty())
                ? population_->traces().back()
                : empty_trace;
        report.algo.evolutionOps = trace.totalOps();
        report.algo.opBreakdown = trace.opTotals();
        report.algo.maxParentReuse = trace.maxParentReuse();
        report.hw = soc_.simulateGeneration(trace, inference_work,
                                            report.algo.memoryBytes);
        report.phases.reportSeconds = secondsSince(h0);
    }

    // Phase breakdown: the serial barrier phases come from the
    // population (measured inside stepBatch); the barrier-idle
    // fraction differences the pool's busy-time over the generation's
    // worker-seconds. All always-on, telemetry or not.
    const neat::StepPhaseTimes &pp = population_->lastStepPhases();
    report.phases.reproduceSeconds = pp.reproduceSeconds;
    report.phases.breedSeconds = pp.breedSeconds;
    report.phases.speciateSeconds = pp.speciateSeconds;
    report.phases.wallSeconds = secondsSince(wall0);
    report.phases.planCompileCpuSeconds =
        static_cast<double>(engine_->planCache().compileNs() -
                            compile_ns0) *
        1e-9;
    const double worker_seconds =
        report.phases.wallSeconds *
        static_cast<double>(engine_->numThreads());
    if (worker_seconds > 0.0) {
        const double busy_seconds =
            static_cast<double>(engine_->workerBusyNs() - busy0) *
            1e-9;
        report.phases.barrierIdleFraction = std::clamp(
            1.0 - busy_seconds / worker_seconds, 0.0, 1.0);
    }

    if (auto *reg = obs::MetricsRegistry::active()) {
        reg->counter("generations").add(1);
        reg->gauge("phase.evaluate_seconds")
            .set(report.phases.evaluateSeconds);
        reg->gauge("phase.reproduce_seconds")
            .set(report.phases.reproduceSeconds);
        reg->gauge("phase.breed_seconds").set(report.phases.breedSeconds);
        reg->gauge("phase.speciate_seconds")
            .set(report.phases.speciateSeconds);
        reg->gauge("phase.report_seconds")
            .set(report.phases.reportSeconds);
        reg->gauge("phase.wall_seconds")
            .set(report.phases.wallSeconds);
        reg->gauge("plan.compile_cpu_seconds")
            .set(report.phases.planCompileCpuSeconds);
        reg->gauge("pool.barrier_idle_fraction")
            .set(report.phases.barrierIdleFraction);
        reg->gauge("fitness.best").set(report.algo.bestFitness);
        reg->gauge("fitness.mean").set(report.algo.meanFitness);
    }
    if (telemetry_->installed()) {
        // Satellite: the reproduction trace that bred the next
        // generation rides the same run directory as a JSONL stream.
        if (!done && !population_->traces().empty())
            telemetry_->writeEvolutionTrace(
                population_->traces().back());
        telemetry_->endGeneration(gen);
    }

    reports_.push_back(std::move(report));

    // Generation barrier: the population now holds the next,
    // unevaluated generation (bred + speciated). This is the one
    // point in the loop where the full evolution state is compact and
    // quiescent — snapshot it here. Nothing to checkpoint when
    // solved: the run is over.
    if (!done && !cfg_.checkpointDir.empty() &&
        population_->generation() % cfg_.checkpointEveryN == 0) {
        writeCheckpoint();
    }
    return done;
}

void
System::writeCheckpoint()
{
    obs::Span span("checkpoint", "phase", population_->generation());
    persist::SystemSnapshot snap;
    snap.envName = cfg_.envName;
    snap.seed = cfg_.seed;
    snap.populationSize = neatCfg_.populationSize;
    snap.numInputs = neatCfg_.numInputs;
    snap.numOutputs = neatCfg_.numOutputs;
    snap.feedForward = neatCfg_.feedForward;
    snap.numericsTier = cfg_.numericsTier;
    snap.population = population_->capture();
    if (const auto *reg = obs::MetricsRegistry::active())
        snap.counters = reg->counterSnapshot();

    const std::string path =
        cfg_.checkpointDir + "/" +
        persist::snapshotFileName(population_->generation());
    persist::writeSnapshotFile(snap, path);
    if (auto *reg = obs::MetricsRegistry::active())
        reg->counter("checkpoints.written").add(1);
}

void
System::resumeFrom(const std::string &path)
{
    const auto wall0 = Clock::now();
    ResumePhases phases;
    // The genomes decode on the engine's workers.
    persist::SystemSnapshot snap =
        persist::readSnapshotFile(path, executorOn(*engine_));
    phases.readSeconds = secondsSince(wall0);
    const auto validate0 = Clock::now();

    // Provenance gate: a snapshot only resumes the run that wrote it.
    // Everything below is config the snapshot's state is a pure
    // function of — resuming under a different one would not be the
    // run the file claims to continue.
    auto mismatch = [&](const std::string &what, const auto &have,
                        const auto &want) {
        std::ostringstream oss;
        oss << "snapshot \"" << path << "\" does not match this run: "
            << what << " is " << have << " in the file, " << want
            << " in the config";
        throw persist::SnapshotError(oss.str());
    };
    if (snap.envName != cfg_.envName)
        mismatch("environment", snap.envName, cfg_.envName);
    if (snap.seed != cfg_.seed)
        mismatch("seed", snap.seed, cfg_.seed);
    if (snap.populationSize != neatCfg_.populationSize)
        mismatch("population size", snap.populationSize,
                 neatCfg_.populationSize);
    if (snap.numInputs != neatCfg_.numInputs)
        mismatch("input count", snap.numInputs, neatCfg_.numInputs);
    if (snap.numOutputs != neatCfg_.numOutputs)
        mismatch("output count", snap.numOutputs, neatCfg_.numOutputs);
    if (snap.feedForward != neatCfg_.feedForward)
        mismatch("feed-forward flag", snap.feedForward,
                 neatCfg_.feedForward);
    if (snap.numericsTier != cfg_.numericsTier)
        mismatch("numerics tier",
                 nn::numericsTierName(snap.numericsTier),
                 nn::numericsTierName(cfg_.numericsTier));

    // Structure gate: the digest only proves the bytes are the ones
    // written, not that they describe genomes this run can breed and
    // compile. Every genome the population holds must pass
    // Genome::validate under this run's config. The checks run on the
    // engine's workers; of several failures, the one reported is the
    // first in the serial order: genomes by key, then species
    // representatives, then the best genome.
    struct Check
    {
        const neat::Genome *genome;
        std::string_view what;
        std::optional<int> key;
    };
    std::vector<Check> checks;
    checks.reserve(snap.population.genomes.size() +
                   snap.population.species.size() + 1);
    for (const auto &[gk, g] : snap.population.genomes)
        checks.push_back({&g, "genome", gk});
    for (const auto &[sk, sp] : snap.population.species)
        checks.push_back({&sp.representative, "representative of species", sk});
    if (snap.population.hasBest)
        checks.push_back({&snap.population.bestGenome, "best genome", {}});
    std::vector<std::optional<std::string>> failures(checks.size());
    engine_->runParallel(checks.size(), [&](std::size_t i, int) {
        try {
            checks[i].genome->validate(neatCfg_);
        } catch (const std::logic_error &e) {
            failures[i] = e.what();
        }
    });
    for (size_t i = 0; i < checks.size(); ++i) {
        if (!failures[i])
            continue;
        std::string what(checks[i].what);
        if (checks[i].key) {
            what += ' ';
            what += std::to_string(*checks[i].key);
        }
        throw persist::SnapshotError("snapshot \"" + path + "\": " + what +
                                     " is malformed: " + *failures[i]);
    }

    phases.validateSeconds = secondsSince(validate0);

    // Validated end to end — apply atomically.
    const auto restore0 = Clock::now();
    population_->restore(std::move(snap.population));
    auto *reg = obs::MetricsRegistry::active();
    if (reg)
        reg->restoreCounters(snap.counters);
    solved_ = false;
    phases.restoreSeconds = secondsSince(restore0);
    phases.wallSeconds = secondsSince(wall0);
    resume_ = phases;

    if (reg) {
        reg->gauge("resume.read_seconds").set(resume_.readSeconds);
        reg->gauge("resume.validate_seconds").set(resume_.validateSeconds);
        reg->gauge("resume.restore_seconds").set(resume_.restoreSeconds);
        reg->gauge("resume.wall_seconds").set(resume_.wallSeconds);
    }
}

RunSummary
System::run()
{
    for (int g = 0; g < spec_.maxGenerations && !solved_; ++g)
        stepGeneration();

    RunSummary s;
    s.solved = solved_;
    s.generations = static_cast<int>(reports_.size());
    if (population_->hasBest()) {
        s.bestFitness = population_->bestGenome().fitness();
        s.bestGenome = population_->bestGenome();
    }
    for (const auto &r : reports_) {
        s.totalEvolutionEnergyJ += r.hw.evolutionEnergyJ;
        s.totalInferenceEnergyJ += r.hw.inferenceEnergyJ;
        s.totalEvolutionSeconds += r.hw.evolutionSeconds;
        s.totalInferenceSeconds += r.hw.inferenceSeconds();
    }
    return s;
}

env::EpisodeResult
System::replayBest(uint64_t seed)
{
    GENESYS_ASSERT(population_->hasBest(), "no best genome yet");
    obs::Span span("replay_best", "phase");
    // compileFor: recurrent configs replay through a recurrent plan,
    // under the same numerics tier the run evaluated with. The episode
    // runs on the engine's loop, one item on one lane.
    const auto plan = nn::CompiledPlan::compileFor(
        population_->bestGenome(), neatCfg_, cfg_.numericsTier);
    env::WaveScratch scratch;
    return env::evaluateWave({{&plan, seed}}, {env_.get()}, scratch)
        .episodes.front();
}

} // namespace genesys::core
