#include "neat/species.hh"

#include <limits>
#include <span>

#include "common/logging.hh"

namespace genesys::neat
{

namespace
{

/**
 * d[r * genomes.size() + g] = reps[r]->distance(*genomes[g]), computed
 * on `exec`. Genome::distance is pure, so the table holds exactly the
 * values a serial loop would compute.
 */
std::vector<double>
distanceTable(std::span<const Genome *const> reps,
              std::span<const Genome *const> genomes,
              const NeatConfig &cfg, const Executor &exec)
{
    const size_t cols = genomes.size();
    std::vector<double> d(reps.size() * cols);
    forEachIndex(exec, d.size(), [&](size_t i) {
        d[i] = reps[i / cols]->distance(*genomes[i % cols], cfg);
    });
    return d;
}

} // namespace

void
SpeciesSet::speciate(const std::map<int, Genome> &population, int generation,
                     const Executor &exec)
{
    GENESYS_ASSERT(!population.empty(), "cannot speciate empty population");
    constexpr double kInf = std::numeric_limits<double>::infinity();

    std::vector<const Genome *> genomes; // key order
    genomes.reserve(population.size());
    for (const auto &[gk, g] : population)
        genomes.push_back(&g);

    // Step 1: each existing species, in key order, picks the genome
    // closest to its previous representative that no earlier species
    // took, as its new representative and first member. A species
    // left with no genome to pick is dropped.
    std::vector<const Genome *> reps;
    for (const auto &[sk, sp] : species_)
        reps.push_back(&sp.representative);
    const std::vector<double> toPrevious =
        distanceTable(reps, genomes, cfg_, exec);

    std::vector<char> taken(genomes.size(), 0);
    std::vector<Species *> live; // species-key order
    size_t r = 0;
    for (auto it = species_.begin(); it != species_.end(); ++r) {
        const double *row = toPrevious.data() + r * genomes.size();
        double best = kInf;
        size_t pick = genomes.size();
        for (size_t i = 0; i < genomes.size(); ++i) {
            if (!taken[i] && row[i] < best) {
                best = row[i];
                pick = i;
            }
        }
        if (pick == genomes.size()) {
            it = species_.erase(it);
            continue;
        }
        taken[pick] = 1;
        Species &sp = (it++)->second;
        sp.representative = *genomes[pick];
        sp.memberKeys.assign(1, genomes[pick]->key());
        live.push_back(&sp);
    }

    // Step 2: every other genome, in key order, joins the nearest
    // compatible species, or founds a new one. Distances to the
    // step-1 representatives come from a second table. A genome that
    // founds a species gets a column: its distances to every later
    // genome, computed on `exec` when it founds, before the scan
    // reads them.
    std::vector<const Genome *> rest;
    rest.reserve(genomes.size() - live.size());
    for (size_t i = 0; i < genomes.size(); ++i) {
        if (!taken[i])
            rest.push_back(genomes[i]);
    }
    reps.clear();
    for (const Species *sp : live)
        reps.push_back(&sp->representative);
    const std::vector<double> toPicked = distanceTable(reps, rest, cfg_, exec);
    const size_t tabled = live.size();
    // One column per species founded here, in live order: the
    // founder against rest[next], rest[next + 1], ...
    struct Column
    {
        size_t next;
        std::vector<double> d;
    };
    std::vector<Column> founded;

    for (size_t j = 0; j < rest.size(); ++j) {
        const Genome &g = *rest[j];
        double best = kInf;
        Species *home = nullptr;
        for (size_t s = 0; s < live.size(); ++s) {
            const Column *c = s < tabled ? nullptr : &founded[s - tabled];
            const double d = c ? c->d[j - c->next]
                               : toPicked[s * rest.size() + j];
            if (d < cfg_.compatibilityThreshold && d < best) {
                best = d;
                home = live[s];
            }
        }
        if (home != nullptr) {
            home->memberKeys.push_back(g.key());
            continue;
        }
        const int sk = nextSpeciesKey_++;
        const auto [it, fresh] = species_.try_emplace(sk);
        GENESYS_ASSERT(fresh, "species key " << sk << " issued twice");
        Species &sp = it->second;
        sp.key = sk;
        sp.lastImprovedGeneration = generation;
        sp.representative = g;
        sp.memberKeys.assign(1, g.key());
        live.push_back(&sp);
        const Genome *founder = &sp.representative;
        const auto later = std::span(rest).subspan(j + 1);
        founded.push_back(
            {j + 1, distanceTable({&founder, 1}, later, cfg_, exec)});
    }
}

} // namespace genesys::neat
