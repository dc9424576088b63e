#include "bench.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

extern char **environ;

namespace perfbench
{

using genesys::nn::NumericsTier;

const std::vector<Workload> &
workloads()
{
    // name, env, threads, episodes, tier, persist, obs,
    // subSeeds, generations, passes, expectWaves
    static const std::vector<Workload> table = {
        {"airraid-4t", "AirRaid-ram-v0", 4, 1, NumericsTier::Reference,
         false, false, 6, 20, 5, true},
        {"lander-hw-1t", "LunarLander_v2", 1, 4, NumericsTier::HwFaithful,
         false, false, 20, 20, 10, false},
        {"cartpole-ckpt-2t", "CartPole_v0", 2, 1, NumericsTier::Reference,
         true, true, 32, 25, 7, true},
    };
    return table;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads()) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

uint64_t
systemSeed(uint64_t seed, int i)
{
    return genesys::deriveSeed(seed, static_cast<uint64_t>(i));
}

genesys::core::SystemConfig
systemConfig(const Workload &w, uint64_t seed, const std::string &dir)
{
    genesys::core::SystemConfig cfg;
    cfg.envName = w.envName;
    cfg.maxGenerations = w.generations;
    cfg.episodesPerEval = w.episodes;
    cfg.seed = seed;
    cfg.numThreads = w.threads;
    cfg.numericsTier = w.tier;
    // Solving would end a run early; fixed-length runs measure a fixed
    // amount of evolution.
    cfg.tweakNeat = [](genesys::neat::NeatConfig &n) {
        n.fitnessThreshold = std::numeric_limits<double>::infinity();
    };
    if (w.persist) {
        cfg.checkpointDir = dir + "/checkpoints";
        cfg.checkpointEveryN = 1;
    }
    if (w.obs) {
        cfg.telemetry.trace = true;
        cfg.telemetry.metrics = true;
        cfg.telemetry.dir = dir + "/telemetry";
    }
    return cfg;
}

std::vector<std::string>
inheritedConfigVariables()
{
    static const char *const exact[] = {
        "GENESYS_EVAL_MODE", "GENESYS_NUMERICS", "GENESYS_TRACE",
        "GENESYS_METRICS", "GENESYS_TELEMETRY_DIR"};
    std::vector<std::string> found;
    for (char **e = environ; *e; ++e) {
        const std::string entry(*e);
        const std::string name = entry.substr(0, entry.find('='));
        bool pinned = name.rfind("GENESYS_CHECKPOINT_", 0) == 0;
        for (const char *x : exact)
            pinned = pinned || name == x;
        if (pinned)
            found.push_back(name);
    }
    std::sort(found.begin(), found.end());
    return found;
}

namespace
{

struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    word(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    void integer(long v) { word(static_cast<uint64_t>(v)); }
    void real(double v) { word(std::bit_cast<uint64_t>(v)); }
};

} // namespace

uint64_t
generationDigest(const genesys::neat::GenerationStats &a,
                 const genesys::hw::SocGenStats &s)
{
    Fnv f;
    f.integer(a.generation);
    f.real(a.bestFitness);
    f.real(a.meanFitness);
    f.integer(a.bestGenomeKey);
    f.integer(a.totalNodeGenes);
    f.integer(a.totalConnectionGenes);
    f.integer(a.totalGenes);
    f.integer(a.memoryBytes);
    f.integer(a.evolutionOps);
    f.integer(a.opBreakdown.crossoverOps);
    f.integer(a.opBreakdown.cloneOps);
    f.integer(a.opBreakdown.perturbOps);
    f.integer(a.opBreakdown.addOps);
    f.integer(a.opBreakdown.deleteOps);
    f.integer(a.maxParentReuse);
    f.integer(a.numSpecies);

    const genesys::hw::EveGenStats &e = s.eve;
    f.integer(e.cycles);
    f.integer(e.waves);
    f.integer(e.childrenBred);
    f.integer(e.sramReads);
    f.integer(e.sramWrites);
    f.integer(e.geneDeliveries);
    f.integer(e.peOps);
    f.integer(e.dramBytes);
    f.real(e.readsPerCycle);
    f.real(e.peUtilization);
    f.real(e.sramEnergyJ);
    f.real(e.peEnergyJ);
    f.real(e.nocEnergyJ);
    f.real(e.dramEnergyJ);

    const genesys::hw::AdamStats &d = s.adam;
    f.integer(d.cycles);
    f.integer(d.vectorizeCycles);
    f.integer(d.usefulMacs);
    f.integer(d.arrayMacs);
    f.integer(d.sramReads);
    f.integer(d.sramWrites);
    f.integer(d.layers);
    f.integer(d.inputWords);
    f.integer(d.outputWords);

    f.real(s.evolutionSeconds);
    f.real(s.inferenceComputeSeconds);
    f.real(s.toAdamSeconds);
    f.real(s.fromAdamSeconds);
    f.real(s.evolutionEnergyJ);
    f.real(s.inferenceEnergyJ);
    return f.h;
}

uint64_t
reportDigest(const genesys::core::GenerationReport &r)
{
    Fnv f;
    f.word(generationDigest(r.algo, r.hw));
    f.real(r.compactCellsPerGenome);
    f.real(r.sparseCellsPerGenome);
    f.integer(r.inferenceSteps);
    f.integer(r.maxEpisodeSteps);
    f.real(r.macsPerStep);
    return f.h;
}

void
RunResult::fail(const std::string &what, long generations)
{
    std::cerr << "perfbench: FAILED: " << what << "\n";
    correct = false;
    failed += generations;
}

void
RunResult::add(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not finite", 0);
        value = 0.0;
    }
    metrics.push_back({name, value, unit});
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

void
placeSystem(const Workload &w, int i)
{
    static const cpu_set_t allowed = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        sched_getaffinity(0, sizeof set, &set);
        return set;
    }();
    if (w.threads != 1) {
        sched_setaffinity(0, sizeof allowed, &allowed);
        return;
    }
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    }
    if (cpus.empty())
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<size_t>(i) % cpus.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
}

bool
checkResolvedConfig(const Workload &w, const genesys::core::System &sys)
{
    const bool waves = sys.evalEngine().usesHeterogeneousWaves();
    const int threads = sys.evalEngine().numThreads();
    const NumericsTier tier = sys.numericsTier();
    std::cout << "workload " << w.name << ": env=" << w.envName
              << " threads=" << threads
              << " episodes=" << sys.evalEngine().episodes()
              << " tier=" << genesys::nn::numericsTierName(tier)
              << " eval_path="
              << (waves ? "heterogeneous-waves" : "per-genome-batch")
              << " persist=" << (w.persist ? "every-generation" : "off")
              << " obs=" << (w.obs ? "trace+metrics" : "off")
              << " population=" << sys.neatConfig().populationSize
              << " system_seeds=" << w.subSeeds
              << " generations_each=" << w.generations
              << " passes=" << w.passes << "\n";
    return waves == w.expectWaves && threads == w.threads &&
           tier == w.tier && sys.evalEngine().episodes() == w.episodes;
}

} // namespace perfbench
