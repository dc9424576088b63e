#include "neat/species.hh"

#include <algorithm>
#include <limits>
#include <set>

#include "common/logging.hh"

namespace genesys::neat
{

std::vector<double>
Species::memberFitnesses(const std::map<int, Genome> &population) const
{
    std::vector<double> out;
    out.reserve(memberKeys.size());
    for (int mk : memberKeys) {
        auto it = population.find(mk);
        GENESYS_ASSERT(it != population.end(),
                       "species member " << mk << " not in population");
        GENESYS_ASSERT(it->second.hasFitness(),
                       "species member " << mk << " has no fitness");
        out.push_back(it->second.fitness());
    }
    return out;
}

double
DistanceCache::distance(const Genome &a, const Genome &b)
{
    const std::pair<int, int> key{std::min(a.key(), b.key()),
                                  std::max(a.key(), b.key())};
    auto it = cache_.find(key);
    if (it != cache_.end()) {
        ++hits_;
        return it->second;
    }
    ++misses_;
    const double d = a.distance(b, cfg_);
    cache_.emplace(key, d);
    return d;
}

void
DistanceCache::prefill(const std::vector<const Genome *> &reps,
                       const std::vector<const Genome *> &genomes,
                       const Executor &exec)
{
    const size_t cols = genomes.size();
    std::vector<double> d(reps.size() * cols);
    forEachIndex(exec, d.size(), [&](size_t i) {
        d[i] = reps[i / cols]->distance(*genomes[i % cols], cfg_);
    });
    for (size_t i = 0; i < d.size(); ++i) {
        const int a = reps[i / cols]->key();
        const int b = genomes[i % cols]->key();
        cache_.emplace(std::pair{std::min(a, b), std::max(a, b)}, d[i]);
    }
    misses_ += d.size();
}

void
SpeciesSet::speciate(const std::map<int, Genome> &population, int generation,
                     const Executor &exec)
{
    GENESYS_ASSERT(!population.empty(), "cannot speciate empty population");

    DistanceCache distances(cfg_);

    std::set<int> unspeciated;
    std::vector<const Genome *> all;
    all.reserve(population.size());
    for (const auto &[gk, g] : population) {
        unspeciated.insert(gk);
        all.push_back(&g);
    }
    // Every distance step 1 can ask for: each previous representative
    // against every genome.
    std::vector<const Genome *> reps;
    for (const auto &[sk, sp] : species_)
        reps.push_back(&sp.representative);
    distances.prefill(reps, all, exec);

    std::map<int, int> newRepresentatives; // species -> genome key
    std::map<int, std::vector<int>> newMembers;

    // Step 1: each existing species picks the unspeciated genome
    // closest to its previous representative as the new
    // representative.
    for (auto &[sk, sp] : species_) {
        double best = std::numeric_limits<double>::infinity();
        int bestKey = -1;
        for (int gk : unspeciated) {
            const double d = distances.distance(sp.representative,
                                                population.at(gk));
            if (d < best) {
                best = d;
                bestKey = gk;
            }
        }
        if (bestKey >= 0) {
            newRepresentatives[sk] = bestKey;
            newMembers[sk] = {bestKey};
            unspeciated.erase(bestKey);
        }
    }

    // Step 2: assign every remaining genome to the nearest compatible
    // species, or spawn a new species around it. Distances to the
    // step-1 representatives are computed up front; those to species
    // spawned below are computed as they arise.
    reps.clear();
    for (const auto &[sk, repKey] : newRepresentatives)
        reps.push_back(&population.at(repKey));
    std::vector<const Genome *> rest;
    rest.reserve(unspeciated.size());
    for (int gk : unspeciated)
        rest.push_back(&population.at(gk));
    distances.prefill(reps, rest, exec);

    while (!unspeciated.empty()) {
        const int gk = *unspeciated.begin();
        unspeciated.erase(unspeciated.begin());
        const Genome &g = population.at(gk);

        double best = std::numeric_limits<double>::infinity();
        int bestSpecies = -1;
        for (const auto &[sk, repKey] : newRepresentatives) {
            const double d = distances.distance(population.at(repKey), g);
            if (d < cfg_.compatibilityThreshold && d < best) {
                best = d;
                bestSpecies = sk;
            }
        }
        if (bestSpecies >= 0) {
            newMembers[bestSpecies].push_back(gk);
        } else {
            const int sk = nextSpeciesKey_++;
            newRepresentatives[sk] = gk;
            newMembers[sk] = {gk};
        }
    }

    // Step 3: rebuild the species map.
    genomeToSpecies_.clear();
    std::map<int, Species> updated;
    for (const auto &[sk, repKey] : newRepresentatives) {
        Species sp;
        auto old = species_.find(sk);
        if (old != species_.end()) {
            sp = old->second;
        } else {
            sp.key = sk;
            sp.createdGeneration = generation;
            sp.lastImprovedGeneration = generation;
        }
        sp.representative = population.at(repKey);
        sp.memberKeys = newMembers.at(sk);
        sp.fitness.reset();
        sp.adjustedFitness = 0.0;
        for (int mk : sp.memberKeys)
            genomeToSpecies_[mk] = sk;
        updated.emplace(sk, std::move(sp));
    }
    species_ = std::move(updated);
}

int
SpeciesSet::speciesOf(int genome_key) const
{
    auto it = genomeToSpecies_.find(genome_key);
    return it == genomeToSpecies_.end() ? -1 : it->second;
}

void
SpeciesSet::restore(std::map<int, Species> species, int next_species_key)
{
    species_ = std::move(species);
    nextSpeciesKey_ = next_species_key;
    genomeToSpecies_.clear();
    for (const auto &[sk, sp] : species_) {
        for (int mk : sp.memberKeys)
            genomeToSpecies_[mk] = sk;
    }
}

void
SpeciesSet::remove(int species_key)
{
    auto it = species_.find(species_key);
    if (it == species_.end())
        return;
    for (int mk : it->second.memberKeys)
        genomeToSpecies_.erase(mk);
    species_.erase(it);
}

} // namespace genesys::neat
