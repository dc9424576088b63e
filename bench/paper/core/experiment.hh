/**
 * @file
 * Experiment harness shared by the bench binaries: the workload
 * suites, runs of them, per-generation series (Fig 4), distributions
 * (Fig 5) and averaged platform-model profiles (Figs 9-10) from
 * closed-loop runs.
 */

#ifndef GENESYS_CORE_EXPERIMENT_HH
#define GENESYS_CORE_EXPERIMENT_HH

#include "common/series.hh"
#include "core/genesys.hh"
#include "platform/platform_model.hh"

namespace genesys::core
{

/** The six environments of the Fig 9-11 evaluation, paper order. */
std::vector<WorkloadSpec> evaluationSuite();

/** The full Table I suite. */
std::vector<WorkloadSpec> characterizationSuite();

/** One completed workload run plus derived series. */
struct WorkloadRun
{
    WorkloadSpec spec;
    RunSummary summary;
    std::vector<GenerationReport> reports;

    /** Best fitness per generation, normalized to the target. */
    Series fitnessSeries;
    /** Total genes in the population per generation (Fig 4(b)). */
    Series geneSeries;
    /** Most-reused parent per generation (Fig 4(c)). */
    Series reuseSeries;
    /** Evolution ops per generation (Fig 5(a) samples). */
    Series opsSeries;
    /** Memory footprint per generation in bytes (Fig 5(b) samples). */
    Series footprintSeries;
};

/**
 * Run one workload to convergence (or its generation cap) and build
 * all derived series. Hardware simulation can be disabled for
 * algorithm-only characterization runs (it is pure overhead there).
 */
WorkloadRun runWorkload(const WorkloadSpec &spec, uint64_t seed,
                        bool simulate_hw = true);

/**
 * Average the per-generation workload numbers into the profile the
 * baseline platform models consume.
 */
platform::WorkloadProfile
profileFromRun(const WorkloadRun &run);

/**
 * Convenience: run `n_runs` seeds of a workload (algorithm only) and
 * return the runs. Seeds are derived from `base_seed`.
 */
std::vector<WorkloadRun> runSeeds(const WorkloadSpec &spec,
                                  uint64_t base_seed, int n_runs,
                                  bool simulate_hw = false);

} // namespace genesys::core

#endif // GENESYS_CORE_EXPERIMENT_HH
