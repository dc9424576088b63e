#include "core/experiment.hh"

#include <algorithm>

namespace genesys::core
{

namespace
{

std::vector<WorkloadSpec>
workloads(std::initializer_list<const char *> env_names)
{
    std::vector<WorkloadSpec> out;
    for (const char *name : env_names)
        out.push_back(workload(name));
    return out;
}

} // namespace

std::vector<WorkloadSpec>
evaluationSuite()
{
    return workloads({"CartPole_v0", "MountainCar_v0", "LunarLander_v2",
                      "AirRaid-ram-v0", "Amidar-ram-v0", "Alien-ram-v0"});
}

std::vector<WorkloadSpec>
characterizationSuite()
{
    return workloads({"CartPole_v0", "MountainCar_v0", "Acrobot",
                      "LunarLander_v2", "Bipedal", "AirRaid-ram-v0",
                      "Alien-ram-v0", "Amidar-ram-v0", "Asterix-ram-v0"});
}

WorkloadRun
runWorkload(const WorkloadSpec &spec, uint64_t seed, bool simulate_hw)
{
    WorkloadRun run;
    run.spec = spec;

    SystemConfig cfg;
    cfg.envName = spec.envName;
    cfg.maxGenerations = spec.maxGenerations;
    cfg.episodesPerEval = spec.episodes;
    cfg.seed = seed;
    cfg.simulateHardware = simulate_hw;

    System sys(cfg);
    run.summary = sys.run();
    run.reports = sys.reports();

    const double target = sys.environment().targetFitness();
    for (const auto &r : run.reports) {
        run.fitnessSeries.push_back(
            std::clamp(r.algo.bestFitness / target, 0.0, 1.2));
        run.geneSeries.push_back(static_cast<double>(r.algo.totalGenes));
        run.reuseSeries.push_back(
            static_cast<double>(r.algo.maxParentReuse));
        run.opsSeries.push_back(static_cast<double>(r.algo.evolutionOps));
        run.footprintSeries.push_back(
            static_cast<double>(r.algo.memoryBytes));
    }
    return run;
}

platform::WorkloadProfile
profileFromRun(const WorkloadRun &run)
{
    platform::WorkloadProfile p;
    p.envName = run.spec.envName;

    auto envp = env::makeEnvironment(run.spec.envName);
    p.obsBytes = envp->observationSize() * 4;
    p.actBytes = envp->recommendedOutputs() * 4;

    if (run.reports.empty())
        return p;

    double ops = 0.0, steps = 0.0, macs = 0.0;
    double compact = 0.0, sparse = 0.0, genes = 0.0;
    double batched = 0.0;
    long op_gens = 0;
    for (const auto &r : run.reports) {
        if (r.algo.evolutionOps > 0) {
            ops += static_cast<double>(r.algo.evolutionOps);
            ++op_gens;
        }
        batched += static_cast<double>(r.maxEpisodeSteps);
        steps += static_cast<double>(r.inferenceSteps);
        macs += r.macsPerStep;
        compact += r.compactCellsPerGenome;
        sparse += r.sparseCellsPerGenome;
        genes += static_cast<double>(r.algo.totalGenes);
    }
    const double n = static_cast<double>(run.reports.size());
    p.population = 150;
    p.evolutionOps =
        op_gens > 0 ? static_cast<long>(ops / op_gens) : 0;
    p.inferenceSteps = static_cast<long>(steps / n);
    p.batchedSteps = static_cast<long>(batched / n);
    p.macsPerStep = macs / n;
    p.compactCellsPerGenome = static_cast<long>(compact / n);
    p.sparseCellsPerGenome = static_cast<long>(sparse / n);
    p.totalGenes = static_cast<long>(genes / n);
    return p;
}

std::vector<WorkloadRun>
runSeeds(const WorkloadSpec &spec, uint64_t base_seed, int n_runs,
         bool simulate_hw)
{
    std::vector<WorkloadRun> runs;
    runs.reserve(static_cast<size_t>(n_runs));
    for (int i = 0; i < n_runs; ++i) {
        runs.push_back(runWorkload(
            spec, deriveSeed(base_seed, static_cast<uint64_t>(i)),
            simulate_hw));
    }
    return runs;
}

} // namespace genesys::core
