#include "neat/speciate.hh"

#include <limits>
#include <utility>
#include <vector>

namespace genesys::neat::oracle
{

void
speciate(SpeciesSet &set, const std::map<int, Genome> &population,
         int generation, const NeatConfig &cfg)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::map<int, Species> species = set.species();
    int next_key = set.nextSpeciesKey();

    // Step 1: each species, in key order, takes the untaken genome
    // closest to its previous representative, or is dropped.
    std::map<int, bool> taken;
    std::vector<Species *> live;
    for (auto it = species.begin(); it != species.end();) {
        double best = kInf;
        const Genome *pick = nullptr;
        for (const auto &[gk, g] : population) {
            if (taken[gk])
                continue;
            const double d = it->second.representative.distance(g, cfg);
            if (d < best) {
                best = d;
                pick = &g;
            }
        }
        if (pick == nullptr) {
            it = species.erase(it);
            continue;
        }
        taken[pick->key()] = true;
        Species &sp = (it++)->second;
        sp.representative = *pick;
        sp.memberKeys.assign(1, pick->key());
        live.push_back(&sp);
    }

    // Step 2: every other genome, in key order, joins the nearest
    // compatible species or founds one.
    for (const auto &[gk, g] : population) {
        if (taken[gk])
            continue;
        double best = kInf;
        Species *home = nullptr;
        for (Species *sp : live) {
            const double d = sp->representative.distance(g, cfg);
            if (d < cfg.compatibilityThreshold && d < best) {
                best = d;
                home = sp;
            }
        }
        if (home != nullptr) {
            home->memberKeys.push_back(gk);
            continue;
        }
        Species &sp = species[next_key];
        sp.key = next_key++;
        sp.lastImprovedGeneration = generation;
        sp.representative = g;
        sp.memberKeys.assign(1, gk);
        live.push_back(&sp);
    }
    set.restore(std::move(species), next_key);
}

} // namespace genesys::neat::oracle
