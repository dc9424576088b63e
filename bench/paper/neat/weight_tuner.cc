#include "neat/weight_tuner.hh"

#include <algorithm>

#include "common/logging.hh"

namespace genesys::neat
{

Genome
WeightTuner::perturb(const Genome &g, double sigma, XorWow &rng) const
{
    Genome out = g;
    for (NodeGene &ng : out.mutableNodes().mutableValues()) {
        ng.bias = neatCfg_.bias.clamp(ng.bias +
                                      rng.gaussian(0.0, sigma));
        if (neatCfg_.response.mutateRate > 0.0 ||
            neatCfg_.response.initStdev > 0.0) {
            ng.response = neatCfg_.response.clamp(
                ng.response + rng.gaussian(0.0, sigma * 0.25));
        }
    }
    for (ConnectionGene &cg : out.mutableConnections().mutableValues()) {
        cg.weight = neatCfg_.weight.clamp(cg.weight +
                                          rng.gaussian(0.0, sigma));
    }
    return out;
}

WeightTunerResult
WeightTuner::tune(const Genome &seed_genome, const FitnessFn &fitness,
                  XorWow &rng) const
{
    GENESYS_ASSERT(cfg_.parents >= 1, "need at least one parent");
    GENESYS_ASSERT(cfg_.offspring >= cfg_.parents,
                   "lambda must be >= mu");

    WeightTunerResult result;
    result.initialFitness = fitness(seed_genome);
    result.evaluations = 1;

    // Pool of (fitness, genome), kept sorted descending.
    std::vector<std::pair<double, Genome>> pool;
    pool.emplace_back(result.initialFitness, seed_genome);

    double sigma = cfg_.sigma;
    for (int iter = 0; iter < cfg_.iterations; ++iter) {
        const double best_before = pool.front().first;

        std::vector<std::pair<double, Genome>> next = pool;
        for (int i = 0; i < cfg_.offspring; ++i) {
            const auto &parent =
                pool[static_cast<size_t>(i) % pool.size()].second;
            Genome child = perturb(parent, sigma, rng);
            const double f = fitness(child);
            ++result.evaluations;
            next.emplace_back(f, std::move(child));
        }
        std::sort(next.begin(), next.end(),
                  [](const auto &a, const auto &b) {
                      return a.first > b.first;
                  });
        if (next.size() > static_cast<size_t>(cfg_.parents))
            next.resize(static_cast<size_t>(cfg_.parents));
        pool = std::move(next);

        // No improvement (a NaN fitness included): anneal.
        if (!(pool.front().first > best_before))
            sigma = std::max(cfg_.sigmaMin, sigma * cfg_.sigmaDecay);
    }

    result.best = pool.front().second;
    result.bestFitness = pool.front().first;
    return result;
}

} // namespace genesys::neat
