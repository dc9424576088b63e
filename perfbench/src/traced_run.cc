/**
 * @file
 * The traced run. For each System seed it first runs the System itself
 * untraced (the reference), then drives the same sequence of public
 * calls System::stepGeneration makes — Population::stepBatch with an
 * EvalEngine::evaluateGeneration callback, GenesysSoc::
 * simulateGeneration, the Telemetry calls, Population::capture and
 * writeSnapshotFile — each wrapped in a span, and requires every
 * generation's GenerationStats and SocGenStats to match the
 * reference bit for bit. After each generation, outside its span, a
 * single-thread replay re-runs the generation's genomes through
 * compileFor, Environment::reset/step, CompiledPlan::activate and
 * decodeAction to time those calls one by one, and requires the
 * engine's fitness for every genome.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>

#include "alloc_counter.hh"
#include "bench.hh"
#include "persist/snapshot.hh"
#include "span_log.hh"

namespace perfbench
{

namespace fs = std::filesystem;
using namespace genesys;

namespace
{

/** Counters summed over every traced generation. */
struct LayerCounters
{
    long gens = 0;
    long steps = 0;
    double macs = 0.0;
    uint64_t evalAllocs = 0;
    uint64_t neatAllocs = 0;
    uint64_t busyNs = 0;
    double evalCpuS = 0.0;
    long compiles = 0;
    long hits = 0;
    long activeLaneSteps = 0;
    long laneSlotSteps = 0;
    double genes = 0.0;
    double evolutionOps = 0.0;
    double species = 0.0;
    double eveCycles = 0.0;
    double adamCycles = 0.0;
    long snapshots = 0;
    double snapshotBytes = 0.0;
    double traceBytes = 0.0;
    double metricsBytes = 0.0;
    double untracedWallS = 0.0;
};

/** Per-call costs from the single-thread replay. */
struct ReplayCounters
{
    long compiles = 0;
    int64_t compileNs = 0;
    long resets = 0;
    int64_t resetNs = 0;
    long steps = 0;
    int64_t activateNs = 0;
    int64_t decodeNs = 0;
    int64_t stepNs = 0;
    uint64_t envAllocs = 0;
};

int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** Median cost of one back-to-back clock read, subtracted per call. */
int64_t
clockOverheadNs()
{
    std::vector<double> d;
    for (int i = 0; i < 2001; ++i) {
        const auto a = Clock::now();
        d.push_back(static_cast<double>(nsBetween(a, Clock::now())));
    }
    return static_cast<int64_t>(median(d));
}

double
fileBytes(const std::string &path)
{
    std::error_code ec;
    const auto n = fs::file_size(path, ec);
    return ec ? 0.0 : static_cast<double>(n);
}

/** State shared by one traced run's Systems. */
struct LayerTracer
{
    const Workload &w;
    SpanLog log;
    LayerCounters c;
    ReplayCounters rc;
    RunResult &res;
    int64_t clockNs = clockOverheadNs();

    int64_t
    callNs(Clock::time_point a, Clock::time_point b) const
    {
        return std::max<int64_t>(0, nsBetween(a, b) - clockNs);
    }

    void traceSystem(uint64_t seed, const std::string &dir,
                     const std::vector<core::GenerationReport> &ref);
    void replay(const std::vector<neat::Genome> &genomes,
                const std::vector<double> &engineFitness,
                const neat::NeatConfig &ncfg, nn::NumericsTier tier,
                const exec::EvalEngine::SeedFn &seedFor,
                env::Environment &env, int gen);
};

void
LayerTracer::traceSystem(uint64_t seed, const std::string &dir,
                         const std::vector<core::GenerationReport> &ref)
{
    // The pieces core::System assembles, configured as it configures
    // them (the pinned workloads leave no environment override).
    const core::SystemConfig cfg = systemConfig(w, seed, dir);
    core::WorkloadSpec spec = core::workload(cfg.envName);
    spec.maxGenerations = cfg.maxGenerations;
    spec.episodes = cfg.episodesPerEval;
    neat::NeatConfig ncfg = core::neatConfigFor(spec);
    cfg.tweakNeat(ncfg);

    obs::Telemetry telemetry(cfg.telemetry);
    // The System's checkpoint directory on persist workloads; elsewhere
    // it holds the one snapshot the timed run's resume check takes.
    const std::string snapshotDir = dir + "/checkpoints";
    fs::create_directories(snapshotDir);
    neat::Population pop(ncfg, cfg.seed);
    exec::EvalEngineConfig ecfg;
    ecfg.envName = cfg.envName;
    ecfg.numThreads = cfg.numThreads;
    ecfg.episodes = spec.episodes;
    ecfg.waveWidth = cfg.soc.numEvePe;
    ecfg.batchEpisodes = cfg.batchEpisodes;
    ecfg.heterogeneousLanes = cfg.heterogeneousLanes;
    ecfg.waveLanes = cfg.waveLanes;
    ecfg.numericsTier = cfg.numericsTier;
    auto engine = std::make_unique<exec::EvalEngine>(ecfg);
    const hw::GenesysSoc soc(cfg.soc, cfg.energy);
    const auto replayEnv = env::makeEnvironment(cfg.envName);
    const double threads = static_cast<double>(engine->numThreads());

    // Population::capture and writeSnapshotFile, as System's
    // checkpointing calls them.
    auto writeSnapshot = [&](int gen) {
        persist::SystemSnapshot snap;
        snap.envName = cfg.envName;
        snap.seed = cfg.seed;
        snap.populationSize = ncfg.populationSize;
        snap.numInputs = ncfg.numInputs;
        snap.numOutputs = ncfg.numOutputs;
        snap.feedForward = ncfg.feedForward;
        snap.numericsTier = ecfg.numericsTier;
        {
            Span cs(log, "persist.capture", gen);
            snap.population = pop.capture();
            if (const auto *reg = obs::MetricsRegistry::active())
                snap.counters = reg->counterSnapshot();
        }
        const std::string path =
            snapshotDir + "/" + persist::snapshotFileName(pop.generation());
        {
            Span ws(log, "persist.write", gen);
            persist::writeSnapshotFile(snap, path);
        }
        return path;
    };

    for (int gen = 0; gen < w.generations; ++gen) {
        ++res.attempted;
        // Outside the generation span: keep the genomes this
        // generation evaluates, for the replay.
        std::vector<neat::Genome> evaluated;
        for (const auto &[key, g] : pop.genomes()) {
            if (!g.hasFitness())
                evaluated.push_back(g);
        }
        std::vector<double> engineFitness;
        const auto seedFor = exec::EvalEngine::sharedEpisodeSeeds(
            deriveSeed(cfg.seed, static_cast<uint64_t>(gen)));
        neat::GenerationStats algo;
        hw::SocGenStats hwStats;
        double compactCells = 0.0;
        double sparseCells = 0.0;
        const double popSize = static_cast<double>(pop.genomes().size());
        std::string snapshotPath;
        {
            Span genSpan(log, "core.generation", gen);
            obs::Span libGenSpan("generation", "phase", gen);
            const auto wall0 = Clock::now();
            const uint64_t busy0 = engine->workerBusyNs();
            const long compileNs0 = engine->planCache().compileNs();
            const long compiles0 = engine->planCache().compiles();
            const long hits0 = engine->planCache().hits();

            std::vector<hw::GenomeInferenceWork> inferenceWork;
            inferenceWork.reserve(pop.genomes().size());
            uint64_t callbackAllocs = 0;
            double evaluateSeconds = 0.0;
            double reportSeconds = 0.0;
            auto batchFitness =
                [&](const std::vector<neat::GenomeHandle> &batch) {
                    Span gather(log, "core.gather", gen);
                    const uint64_t a0 = allocCount();
                    obs::Span span("evaluate", "phase", gen);
                    std::vector<exec::GenomeEvalResult> results;
                    {
                        Span ev(log, "exec.evaluate", gen);
                        const auto e0 = Clock::now();
                        const double cpu0 = cpuSeconds();
                        const uint64_t allocs0 = allocCount();
                        results =
                            engine->evaluateGeneration(batch, ncfg, seedFor);
                        c.evalAllocs += allocCount() - allocs0;
                        c.evalCpuS += cpuSeconds() - cpu0;
                        evaluateSeconds = secondsSince(e0);
                    }
                    const exec::BatchStats &bs = engine->lastBatchStats();
                    c.activeLaneSteps += bs.waveActiveLaneSteps;
                    c.laneSlotSteps += bs.waveLaneSlotSteps;

                    std::vector<double> fits;
                    fits.reserve(results.size());
                    for (size_t i = 0; i < results.size(); ++i) {
                        const env::EvalDetail &d = results[i].detail;
                        fits.push_back(d.fitness);
                        c.steps += d.inferences;
                        c.macs += static_cast<double>(d.macs);
                        if (cfg.simulateHardware) {
                            // System's workload accounting, including
                            // the storage-cell tallies its report keeps.
                            hw::GenomeInferenceWork wk;
                            wk.schedule = results[i].plan->schedule();
                            wk.inferences = d.inferences;
                            compactCells += static_cast<double>(
                                wk.schedule.denseCells());
                            int maxKey = 0;
                            for (const auto &[nk, ng] :
                                 batch[i].genome->nodes())
                                maxKey = std::max(maxKey, nk);
                            const double dim = maxKey + ncfg.numInputs + 1;
                            sparseCells += dim * dim;
                            inferenceWork.push_back(std::move(wk));
                        }
                    }
                    engineFitness = fits;
                    callbackAllocs = allocCount() - a0;
                    return fits;
                };

            bool done = false;
            {
                Span sb(log, "neat.step_batch", gen);
                const uint64_t a0 = allocCount();
                done = pop.stepBatch(batchFitness);
                c.neatAllocs += allocCount() - a0 - callbackAllocs;
            }
            algo = pop.history().back();

            if (cfg.simulateHardware) {
                Span hs(log, "hw.simulate", gen);
                obs::Span span("report", "phase", gen);
                const auto h0 = Clock::now();
                const neat::EvolutionTrace emptyTrace;
                const neat::EvolutionTrace &trace =
                    (!done && !pop.traces().empty()) ? pop.traces().back()
                                                     : emptyTrace;
                algo.evolutionOps = trace.totalOps();
                algo.opBreakdown = trace.opTotals();
                algo.maxParentReuse = trace.maxParentReuse();
                hwStats = soc.simulateGeneration(trace, inferenceWork,
                                                 algo.memoryBytes);
                reportSeconds = secondsSince(h0);
            }

            {
                Span os(log, "obs.end_generation", gen);
                if (auto *reg = obs::MetricsRegistry::active()) {
                    const double wallSeconds = secondsSince(wall0);
                    const double busySeconds =
                        static_cast<double>(engine->workerBusyNs() -
                                            busy0) *
                        1e-9;
                    reg->counter("generations").add(1);
                    reg->gauge("phase.evaluate_seconds")
                        .set(evaluateSeconds);
                    reg->gauge("phase.reproduce_seconds")
                        .set(pop.lastStepPhases().reproduceSeconds);
                    reg->gauge("phase.speciate_seconds")
                        .set(pop.lastStepPhases().speciateSeconds);
                    reg->gauge("phase.report_seconds").set(reportSeconds);
                    reg->gauge("phase.wall_seconds").set(wallSeconds);
                    reg->gauge("plan.compile_cpu_seconds")
                        .set(static_cast<double>(
                                 engine->planCache().compileNs() -
                                 compileNs0) *
                             1e-9);
                    reg->gauge("pool.barrier_idle_fraction")
                        .set(std::clamp(
                            1.0 - busySeconds / (wallSeconds * threads),
                            0.0, 1.0));
                    reg->gauge("fitness.best").set(algo.bestFitness);
                    reg->gauge("fitness.mean").set(algo.meanFitness);
                }
                if (telemetry.installed()) {
                    if (!done && !pop.traces().empty())
                        telemetry.writeEvolutionTrace(pop.traces().back());
                    telemetry.endGeneration(gen);
                }
            }

            if (!done && !cfg.checkpointDir.empty() &&
                cfg.checkpointEveryN > 0 &&
                pop.generation() % cfg.checkpointEveryN == 0) {
                obs::Span span("checkpoint", "phase", pop.generation());
                snapshotPath = writeSnapshot(gen);
                if (auto *reg = obs::MetricsRegistry::active())
                    reg->counter("checkpoints.written").add(1);
            }

            c.busyNs += engine->workerBusyNs() - busy0;
            c.compiles += engine->planCache().compiles() - compiles0;
            c.hits += engine->planCache().hits() - hits0;
        }

        ++c.gens;
        c.genes += static_cast<double>(algo.totalGenes);
        c.evolutionOps += static_cast<double>(algo.evolutionOps);
        c.species += algo.numSpecies;
        c.eveCycles += static_cast<double>(hwStats.eve.cycles);
        c.adamCycles += static_cast<double>(hwStats.adam.cycles);
        if (!snapshotPath.empty()) {
            ++c.snapshots;
            c.snapshotBytes += fileBytes(snapshotPath);
        }
        const size_t g = static_cast<size_t>(gen);
        if (g >= ref.size() ||
            generationDigest(algo, hwStats) !=
                generationDigest(ref[g].algo, ref[g].hw) ||
            std::bit_cast<uint64_t>(compactCells / popSize) !=
                std::bit_cast<uint64_t>(ref[g].compactCellsPerGenome) ||
            std::bit_cast<uint64_t>(sparseCells / popSize) !=
                std::bit_cast<uint64_t>(ref[g].sparseCellsPerGenome))
            res.fail("traced generation " + std::to_string(gen) +
                     " differs from the System's report");

        // Persistence is off on this workload: measure the persist layer
        // where the timed run's resume check snapshots it.
        if (!w.persist && gen + 1 == w.generations - kResumeTail) {
            const std::string path = writeSnapshot(gen);
            ++c.snapshots;
            c.snapshotBytes += fileBytes(path);
        }

        replay(evaluated, engineFitness, ncfg, ecfg.numericsTier, seedFor,
               *replayEnv, gen);
    }

    // The engine joins its workers before the session flushes, as in
    // System.
    engine.reset();
    telemetry.finish();
    if (w.obs) {
        c.traceBytes += fileBytes(telemetry.traceFilePath());
        c.metricsBytes += fileBytes(telemetry.metricsFilePath());
    }

    // The read path, outside any generation: every snapshot written.
    for (int gen = 1; gen <= w.generations; ++gen) {
        const std::string path =
            snapshotDir + "/" + persist::snapshotFileName(gen);
        if (!fs::exists(path))
            continue;
        Span rs(log, "persist.read", gen);
        const persist::SystemSnapshot snap = persist::readSnapshotFile(path);
        if (snap.population.generation != gen)
            res.fail("snapshot " + path + " reads back generation " +
                     std::to_string(snap.population.generation));
    }
}

void
LayerTracer::replay(const std::vector<neat::Genome> &genomes,
                    const std::vector<double> &engineFitness,
                    const neat::NeatConfig &ncfg, nn::NumericsTier tier,
                    const exec::EvalEngine::SeedFn &seedFor,
                    env::Environment &env, int gen)
{
    Span span(log, "replay", gen);
    if (genomes.size() != engineFitness.size()) {
        res.fail("replay of generation " + std::to_string(gen) +
                 " has " + std::to_string(genomes.size()) +
                 " genomes, the engine evaluated " +
                 std::to_string(engineFitness.size()));
        return;
    }
    const env::ActionSpace space = env.actionSpace();
    nn::CompileScratch compileScratch;
    nn::PlanScratch scratch;
    long mismatches = 0;
    for (size_t k = 0; k < genomes.size(); ++k) {
        const neat::Genome &g = genomes[k];
        const auto c0 = Clock::now();
        const nn::CompiledPlan plan =
            nn::CompiledPlan::compileFor(g, ncfg, compileScratch, tier);
        rc.compileNs += callNs(c0, Clock::now());
        ++rc.compiles;

        double total = 0.0;
        for (int e = 0; e < w.episodes; ++e) {
            plan.reset(scratch);
            const auto r0 = Clock::now();
            std::vector<double> obs = env.reset(seedFor(g.key(), e));
            rc.resetNs += callNs(r0, Clock::now());
            ++rc.resets;
            bool done = false;
            while (!done) {
                const auto t0 = Clock::now();
                plan.activate(obs, scratch);
                const auto t1 = Clock::now();
                const uint64_t a0 = allocCount();
                const env::Action action =
                    env::decodeAction(space, scratch.outputs);
                const auto t2 = Clock::now();
                env::StepResult sr = env.step(action);
                const auto t3 = Clock::now();
                rc.envAllocs += allocCount() - a0;
                obs = std::move(sr.observation);
                done = sr.done;
                rc.activateNs += callNs(t0, t1);
                rc.decodeNs += callNs(t1, t2);
                rc.stepNs += callNs(t2, t3);
                ++rc.steps;
            }
            total += env.episodeFitness();
        }
        const double fitness = total / static_cast<double>(w.episodes);
        if (std::bit_cast<uint64_t>(fitness) !=
            std::bit_cast<uint64_t>(engineFitness[k]))
            ++mismatches;
    }
    if (mismatches > 0)
        res.fail("single-thread replay of generation " +
                 std::to_string(gen) + " disagrees with the engine on " +
                 std::to_string(mismatches) + " genomes");
}

} // namespace

RunResult
tracedRun(const Workload &w, uint64_t seed, double seconds,
          const std::string &dir)
{
    RunResult res;
    const auto start = Clock::now();
    LayerTracer tr{w, {}, {}, {}, res};
    int systems = 0;
    for (int i = 0; i < w.subSeeds; ++i) {
        const double elapsed = secondsSince(start);
        if (systems > 0 &&
            elapsed + elapsed / static_cast<double>(systems) > seconds)
            break;
        const uint64_t sysSeed = systemSeed(seed, i);
        const std::string base = dir + "/work/";

        // The reference: the System itself, untraced.
        placeSystem(w, i);
        setAllocCounting(false);
        std::vector<core::GenerationReport> ref;
        try {
            core::System sys(
                systemConfig(w, sysSeed, base + "u" + std::to_string(i)));
            if (i == 0 && !checkResolvedConfig(w, sys))
                res.fail("the System resolved a configuration other "
                         "than the pinned one",
                         0);
            for (int g = 0; g < w.generations; ++g) {
                ++res.attempted;
                const auto g0 = Clock::now();
                sys.stepGeneration();
                tr.c.untracedWallS += secondsSince(g0);
            }
            ref = sys.reports();
        } catch (const std::exception &e) {
            res.fail(std::string("reference System threw: ") + e.what(),
                     w.generations);
            continue;
        }

        setAllocCounting(true);
        try {
            tr.traceSystem(sysSeed, base + "t" + std::to_string(i), ref);
        } catch (const std::exception &e) {
            res.fail(std::string("traced loop threw: ") + e.what(),
                     w.generations);
        }
        setAllocCounting(false);
        ++systems;
    }

    const std::string spansPath = dir + "/spans.json";
    tr.log.writeChromeTrace(spansPath);
    std::cout << "traced " << systems << " systems x " << w.generations
              << " generations; spans in " << spansPath << "\n";

    const LayerCounters &c = tr.c;
    const ReplayCounters &rc = tr.rc;
    const auto spans = tr.log.totals();
    std::cout << "span totals: name count total_ms self_ms\n";
    for (const auto &[name, t] : spans)
        std::cout << "  " << name << " " << t.count << " " << t.durNs * 1e-6
                  << " " << t.selfNs * 1e-6 << "\n";
    auto durMs = [&](const char *name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.durNs * 1e-6;
    };
    auto selfMs = [&](const char *name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.selfNs * 1e-6;
    };
    auto perCall = [&](const char *name) {
        const auto it = spans.find(name);
        return it == spans.end() || it->second.count == 0
                   ? 0.0
                   : it->second.durNs * 1e-6 /
                         static_cast<double>(it->second.count);
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double gens = static_cast<double>(c.gens);
    const double steps = static_cast<double>(c.steps);
    const double threads = static_cast<double>(w.threads);
    const double evalMs = durMs("exec.evaluate");
    const double genMs = durMs("core.generation");
    const double busyMs = static_cast<double>(c.busyNs) * 1e-6;
    const double rsteps = static_cast<double>(rc.steps);

    res.add("exec.evaluate_ms", ratio(evalMs, gens), "ms");
    res.add("exec.busy_frac", ratio(busyMs, evalMs * threads), "frac");
    res.add("exec.barrier_idle_frac",
            1.0 - ratio(busyMs, genMs * threads), "frac");
    res.add("exec.cpu_util", ratio(c.evalCpuS * 1e3, evalMs * threads),
            "frac");
    res.add("exec.allocs_per_step",
            ratio(static_cast<double>(c.evalAllocs), steps), "count");
    res.add("exec.lane_occupancy",
            ratio(static_cast<double>(c.activeLaneSteps),
                  static_cast<double>(c.laneSlotSteps)),
            "frac");
    res.add("nn.compile_us",
            ratio(static_cast<double>(rc.compileNs) * 1e-3,
                  static_cast<double>(rc.compiles)),
            "us");
    res.add("nn.compiles_per_gen", ratio(static_cast<double>(c.compiles), gens),
            "count");
    res.add("nn.plan_cache_hit_ratio",
            ratio(static_cast<double>(c.hits),
                  static_cast<double>(c.hits + c.compiles)),
            "frac");
    res.add("nn.activate_ns",
            ratio(static_cast<double>(rc.activateNs), rsteps), "ns");
    res.add("nn.macs_per_step", ratio(c.macs, steps), "count");
    res.add("env.step_ns", ratio(static_cast<double>(rc.stepNs), rsteps),
            "ns");
    res.add("env.decode_ns",
            ratio(static_cast<double>(rc.decodeNs), rsteps), "ns");
    res.add("env.allocs_per_step",
            ratio(static_cast<double>(rc.envAllocs), rsteps), "count");
    res.add("env.reset_us",
            ratio(static_cast<double>(rc.resetNs) * 1e-3,
                  static_cast<double>(rc.resets)),
            "us");
    res.add("env.steps_per_gen", ratio(steps, gens), "count");
    res.add("neat.breed_ms", ratio(selfMs("neat.step_batch"), gens), "ms");
    res.add("neat.allocs_per_gen",
            ratio(static_cast<double>(c.neatAllocs), gens), "count");
    res.add("neat.genes_per_gen", ratio(c.genes, gens), "count");
    res.add("neat.evolution_ops_per_gen", ratio(c.evolutionOps, gens),
            "count");
    res.add("neat.species", ratio(c.species, gens), "count");
    res.add("hw.simulate_ms", ratio(durMs("hw.simulate"), gens), "ms");
    res.add("hw.eve_cycles_per_gen", ratio(c.eveCycles, gens), "cycles");
    res.add("hw.adam_cycles_per_gen", ratio(c.adamCycles, gens), "cycles");
    res.add("persist.capture_ms", perCall("persist.capture"), "ms");
    res.add("persist.write_ms", perCall("persist.write"), "ms");
    res.add("persist.read_ms", perCall("persist.read"), "ms");
    res.add("persist.snapshot_kb",
            ratio(c.snapshotBytes / 1024.0, static_cast<double>(c.snapshots)),
            "KiB");
    res.add("obs.end_generation_ms", ratio(durMs("obs.end_generation"), gens),
            "ms");
    res.add("obs.trace_kb_per_gen", ratio(c.traceBytes / 1024.0, gens),
            "KiB");
    res.add("obs.metrics_kb_per_gen", ratio(c.metricsBytes / 1024.0, gens),
            "KiB");
    res.add("core.self_ms",
            ratio(selfMs("core.generation") + selfMs("core.gather"), gens),
            "ms");
    res.add("trace.overhead_frac",
            ratio(genMs * 1e-3, c.untracedWallS) - 1.0, "frac");
    return res;
}

} // namespace perfbench
