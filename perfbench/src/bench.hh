/**
 * @file
 * The benchmark of record: pinned workloads, the timed and traced
 * runs, and the shared helpers they use.
 *
 * Every workload evolves a population of 150 through fixed-length
 * core::System runs with solving disabled. One run of the benchmark
 * derives `subSeeds` System seeds from its --seed and evolves each for
 * `generations` generations; that is one pass. Averaging over several
 * short evolutions keeps the figures steady from one --seed to the
 * next, since one evolution's cost depends on where its search
 * wanders. The run makes `passes` identical passes and keeps, for each
 * generation, the fastest time any pass took: other tenants of a
 * shared machine only ever slow a generation down, by up to half again
 * while they contend for its caches, so the fastest of several repeats
 * is the steadiest estimate of what the code itself costs.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/genesys.hh"

namespace perfbench
{

/** One pinned workload. Names are part of the benchmark's interface. */
struct Workload
{
    const char *name;
    const char *envName;
    int threads;
    int episodes;
    genesys::nn::NumericsTier tier;
    /** Snapshot every generation (the System's own checkpointing). */
    bool persist;
    /** Span trace and metrics telemetry on. */
    bool obs;
    /** System seeds derived from one --seed. */
    int subSeeds;
    /** Generations each System seed evolves. */
    int generations;
    /** Passes over the System seeds; each generation keeps its fastest. */
    int passes;
    /** Expected evaluation path: the heterogeneous wave scheduler? */
    bool expectWaves;
};

/** Generations a resume re-runs at the end of a System seed. */
constexpr int kResumeTail = 5;
/** Leading System seeds whose snapshot every pass resumes. */
constexpr int kResumes = 4;

/** The pinned workloads, in their fixed order. */
const std::vector<Workload> &workloads();
/** Look a workload up by name; null when unknown. */
const Workload *findWorkload(const std::string &name);

/** The i-th System seed of a run with --seed `seed`. */
uint64_t systemSeed(uint64_t seed, int i);

/**
 * The System configuration of workload `w` for System seed `seed`.
 * Checkpoint and telemetry files go to `dir` (made unique by the
 * caller).
 */
genesys::core::SystemConfig systemConfig(const Workload &w, uint64_t seed,
                                         const std::string &dir);

/**
 * Names of the GENESYS_* variables that could change what a workload
 * runs (eval mode, numerics tier, telemetry, checkpointing) and are set
 * in this process's environment.
 */
std::vector<std::string> inheritedConfigVariables();

/** FNV-1a digest of every deterministic field of one generation. */
uint64_t generationDigest(const genesys::neat::GenerationStats &algo,
                          const genesys::hw::SocGenStats &hw);
/** generationDigest plus the report's workload-accounting fields. */
uint64_t reportDigest(const genesys::core::GenerationReport &r);

/** One named measurement. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one benchmark run reports. */
struct RunResult
{
    bool correct = true;
    long attempted = 0;
    long failed = 0;
    std::vector<Metric> metrics;

    /** Record a failed check (message goes to stderr). */
    void fail(const std::string &what, long generations = 1);
    void add(const std::string &name, double value,
             const std::string &unit);
};

/** Timed run: every end-to-end metric, tracing off. */
RunResult timedRun(const Workload &w, uint64_t seed, double seconds,
                   const std::string &dir);

/** Traced run: every per-layer metric. */
RunResult tracedRun(const Workload &w, uint64_t seed, double seconds,
                    const std::string &dir);

// --- helpers ----------------------------------------------------------

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);
/** CPU seconds used by every thread of the process so far. */
double cpuSeconds();
/** Peak resident set of the process, in MiB. */
double peakRssMb();
double median(std::vector<double> v);
/** Nearest-rank percentile, p in (0, 100]. */
double percentile(std::vector<double> v, double p);
/**
 * Place System seed i's run on the CPUs. A single-thread workload runs
 * System seed i pinned to the i-th allowed CPU (round robin), so every
 * pass spreads its work evenly over all CPUs instead of measuring
 * whichever one the scheduler happened to pick; multi-thread
 * workloads keep the full allowed set. Call before constructing the
 * System, whose worker threads inherit the placement.
 */
void placeSystem(const Workload &w, int i);
/** Print how the System resolved the workload; false on a mismatch. */
bool checkResolvedConfig(const Workload &w,
                         const genesys::core::System &sys);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
