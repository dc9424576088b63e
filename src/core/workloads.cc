#include "core/workloads.hh"

#include "common/logging.hh"

namespace genesys::core
{

neat::NeatConfig
neatConfigFor(const WorkloadSpec &spec)
{
    auto envp = env::makeEnvironment(spec.envName);
    neat::NeatConfig cfg = env::configForEnvironment(*envp);

    if (spec.isAtari) {
        // 128-input genomes: the initial full-direct connectivity is
        // already large, so keep structural growth gentle and widen
        // the compatibility threshold so speciation stays coarse.
        cfg.connAddProb = 0.15;
        cfg.connDeleteProb = 0.1;
        cfg.nodeAddProb = 0.1;
        cfg.nodeDeleteProb = 0.05;
        cfg.compatibilityThreshold = 4.5;
        cfg.weight.mutateRate = 0.6;
    } else {
        cfg.connAddProb = 0.4;
        cfg.connDeleteProb = 0.25;
        cfg.nodeAddProb = 0.25;
        cfg.nodeDeleteProb = 0.1;
        cfg.compatibilityThreshold = 3.0;
    }
    return cfg;
}

WorkloadSpec
workload(const std::string &env_name)
{
    // Table I, with the bench generation caps.
    static const WorkloadSpec table[] = {
        {"CartPole_v0", 40, 1, false},
        {"MountainCar_v0", 40, 1, false},
        {"Acrobot", 40, 1, false},
        {"LunarLander_v2", 40, 1, false},
        {"Bipedal", 40, 1, false},
        {"AirRaid-ram-v0", 12, 1, true},
        {"Alien-ram-v0", 12, 1, true},
        {"Amidar-ram-v0", 12, 1, true},
        {"Asterix-ram-v0", 12, 1, true},
    };
    for (const auto &w : table) {
        if (w.envName == env_name)
            return w;
    }
    fatal("unknown workload: " + env_name);
}

} // namespace genesys::core
