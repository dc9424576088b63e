/**
 * @file
 * Workload registry: the Table I environments with the NEAT settings
 * used throughout the evaluation (population 150, full-direct initial
 * topologies, per-class mutation tuning), plus bench-friendly
 * generation caps.
 */

#ifndef GENESYS_CORE_WORKLOADS_HH
#define GENESYS_CORE_WORKLOADS_HH

#include <string>

#include "env/runner.hh"

namespace genesys::core
{

/** A named, fully-specified workload. */
struct WorkloadSpec
{
    std::string envName;
    /** Generation cap for benches (the paper runs to convergence). */
    int maxGenerations = 60;
    /** Episodes averaged per fitness evaluation. */
    int episodes = 1;
    /** True for the 128-byte RAM games (Fig 5's second class). */
    bool isAtari = false;
};

/** NEAT configuration tuned for a workload (paper defaults). */
neat::NeatConfig neatConfigFor(const WorkloadSpec &spec);

/** Look up a workload by environment name. */
WorkloadSpec workload(const std::string &env_name);

} // namespace genesys::core

#endif // GENESYS_CORE_WORKLOADS_HH
