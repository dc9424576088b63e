#include "neat/reproduction.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/check.hh"
#include "common/logging.hh"

namespace genesys::neat
{

Reproduction::Reproduction(const NeatConfig &cfg)
    : cfg_(cfg), stagnation_(cfg),
      nodeIndexer_(cfg.numOutputs)
{
    cfg.validate();
}

std::map<int, Genome>
Reproduction::createNewPopulation(XorWow &rng)
{
    std::map<int, Genome> population;
    for (int i = 0; i < cfg_.populationSize; ++i) {
        const int key = nextGenomeKey_++;
        population.emplace(
            key, Genome::createNew(key, cfg_, nodeIndexer_, rng));
    }
    return population;
}

std::vector<int>
Reproduction::computeSpawn(const std::vector<double> &adjusted_fitness,
                           const std::vector<int> &previous_sizes,
                           int pop_size, int min_species_size)
{
    GENESYS_ASSERT(adjusted_fitness.size() == previous_sizes.size(),
                   "spawn input size mismatch");
    double af_sum = 0.0;
    for (double af : adjusted_fitness)
        af_sum += af;

    std::vector<double> spawn;
    spawn.reserve(adjusted_fitness.size());
    for (size_t i = 0; i < adjusted_fitness.size(); ++i) {
        const double ps = previous_sizes[i];
        double s;
        if (af_sum > 0) {
            s = std::max<double>(min_species_size,
                                 adjusted_fitness[i] / af_sum * pop_size);
        } else {
            s = min_species_size;
        }
        const double d = (s - ps) * 0.5;
        const double c = std::round(d);
        double amount = ps;
        if (std::fabs(c) > 0.0)
            amount += c;
        else if (d > 0.0)
            amount += 1.0;
        else if (d < 0.0)
            amount -= 1.0;
        spawn.push_back(amount);
    }

    double total = 0.0;
    for (double s : spawn)
        total += s;
    const double norm = total > 0 ? pop_size / total : 1.0;

    std::vector<int> result;
    result.reserve(spawn.size());
    for (double s : spawn) {
        result.push_back(std::max(
            min_species_size, static_cast<int>(std::lround(s * norm))));
    }
    return result;
}

std::map<int, Genome>
Reproduction::reproduce(SpeciesSet &species,
                        const std::map<int, Genome> &population,
                        int generation, XorWow &rng, EvolutionTrace &trace,
                        const Executor &exec)
{
    trace.generation = generation;
    trace.children.clear();
    lastBreedSeconds_ = 0.0;

    // Stagnation pass: drop species that have not improved.
    std::vector<SpeciesStanding> remaining;
    for (const SpeciesStanding &st :
         stagnation_.update(species, population, generation)) {
        if (st.stagnant)
            species.remove(st.key);
        else
            remaining.push_back(st);
    }
    if (remaining.empty())
        return {}; // complete extinction

    // Fitness sharing: each species' mean fitness, normalized into
    // [0,1] across the population, is its reproductive share
    // (Section II-D "Fitness sharing").
    double min_f = remaining.front().memberMin;
    double max_f = remaining.front().memberMax;
    for (const SpeciesStanding &st : remaining) {
        min_f = std::min(min_f, st.memberMin);
        max_f = std::max(max_f, st.memberMax);
    }
    const double fitness_range = std::max(1.0, max_f - min_f);

    std::vector<double> adjusted;
    std::vector<int> prev_sizes;
    for (const SpeciesStanding &st : remaining) {
        adjusted.push_back((st.memberMean - min_f) / fitness_range);
        prev_sizes.push_back(static_cast<int>(
            species.species().at(st.key).memberKeys.size()));
    }

    const int min_species_size = std::max(cfg_.minSpeciesSize, cfg_.elitism);
    const auto spawn_amounts = computeSpawn(
        adjusted, prev_sizes, cfg_.populationSize, min_species_size);

    std::map<int, Genome> new_population;

    // computeSpawn normalizes with lround, so the per-species amounts
    // (each already >= elitism via min_species_size) can sum past the
    // population size. Shave the overflow deterministically from the
    // least-fit species first (`remaining` is in ascending species
    // fitness order), keeping each species' elites while any species
    // still has non-elite spawn to give up; a no-op whenever the
    // rounded total already fits — the common case.
    std::vector<int> spawns(remaining.size());
    int spawn_total = 0;
    for (size_t si = 0; si < remaining.size(); ++si) {
        spawns[si] = std::max(spawn_amounts[si], cfg_.elitism);
        spawn_total += spawns[si];
    }
    const auto shave_down_to = [&](int floor) {
        for (size_t si = 0;
             spawn_total > cfg_.populationSize && si < spawns.size();) {
            if (spawns[si] > floor) {
                --spawns[si];
                --spawn_total;
            } else {
                ++si;
            }
        }
    };
    shave_down_to(cfg_.elitism); // spare elites while possible
    shave_down_to(0);            // cut elites only if they alone overflow

    // Phase 1, plan (serial, on the population stream): elites, parent
    // picks and child keys for the whole generation, in species order.
    // Each bred child gets a placeholder record in trace.children.
    struct Planned
    {
        const Genome *parent1;
        const Genome *parent2;
        size_t record;
    };
    std::vector<Planned> planned;
    for (size_t si = 0; si < remaining.size(); ++si) {
        const Species &sp = species.species().at(remaining[si].key);
        int spawn = spawns[si];

        // Rank members by fitness (descending; key as tiebreak for
        // determinism).
        std::vector<std::pair<double, int>> ranked;
        for (int mk : sp.memberKeys)
            ranked.emplace_back(population.at(mk).fitness(), mk);
        std::sort(ranked.begin(), ranked.end(), [](const auto &a,
                                                   const auto &b) {
            if (a.first != b.first)
                return a.first > b.first;
            return a.second < b.second;
        });

        // Elitism: the species' best genomes survive unchanged. On
        // chip this is a genome that is simply left in the Genome
        // Buffer; no EvE work.
        for (int i = 0; i < cfg_.elitism &&
                        i < static_cast<int>(ranked.size()) && spawn > 0;
             ++i, --spawn) {
            const int gid = ranked[static_cast<size_t>(i)].second;
            Genome elite = population.at(gid);
            elite.clearFitness();
            new_population.emplace(gid, std::move(elite));

            ChildRecord rec;
            rec.childKey = gid;
            rec.parent1Key = gid;
            rec.parent2Key = gid;
            rec.isElite = true;
            const Genome &src = population.at(gid);
            rec.childNodeGenes = src.numNodeGenes();
            rec.childConnGenes = src.numConnectionGenes();
            trace.children.push_back(rec);
        }
        if (spawn <= 0)
            continue;

        // Survival threshold: only the top fraction may be parents.
        size_t cutoff = static_cast<size_t>(std::ceil(
            cfg_.survivalThreshold * static_cast<double>(ranked.size())));
        cutoff = std::max<size_t>(cutoff, 2);
        cutoff = std::min(cutoff, ranked.size());

        // Rank-biased survivor pick (see NeatConfig::parentSelectionBias).
        auto pick_parent = [&]() -> size_t {
            const double u = rng.uniform();
            const double biased =
                std::pow(u, std::max(1.0, cfg_.parentSelectionBias));
            auto idx = static_cast<size_t>(
                biased * static_cast<double>(cutoff));
            return std::min(idx, cutoff - 1);
        };

        while (spawn-- > 0) {
            const size_t i1 = pick_parent();
            const size_t i2 = pick_parent();
            int p1_key = ranked[i1].second;
            int p2_key = ranked[i2].second;
            // Fitter parent first (parent 1 contributes disjoint
            // genes).
            if (population.at(p2_key).fitness() >
                population.at(p1_key).fitness()) {
                std::swap(p1_key, p2_key);
            }

            ChildRecord rec;
            rec.childKey = nextGenomeKey_++;
            rec.parent1Key = p1_key;
            rec.parent2Key = p2_key;
            planned.push_back({&population.at(p1_key),
                               &population.at(p2_key),
                               trace.children.size()});
            trace.children.push_back(rec);
        }
    }

    // Phase 2, breed (parallel): child j draws only from its own
    // stream, deriveSeed(breedSeed, j), and numbers the nodes it adds
    // from a child-local indexer, so it is a pure function of its
    // parents, the seed and j — whichever worker builds it. Gene
    // arrays are reserved here, on the thread that keeps the
    // genomes, with room for one structural mutation of each kind.
    const uint64_t breed_seed = rng.next64();
    const int first_local_node = nodeIndexer_.peek();
    std::vector<Genome> children;
    children.reserve(planned.size());
    for (const Planned &p : planned) {
        Genome &child = children.emplace_back(
            trace.children[p.record].childKey);
        child.mutableNodes().reserve(p.parent1->numNodeGenes() + 1);
        child.mutableConnections().reserve(
            p.parent1->numConnectionGenes() + 3);
    }
    const auto breed0 = std::chrono::steady_clock::now();
    forEachIndex(exec, planned.size(), [&](size_t j) {
        const Planned &p = planned[j];
        ChildRecord &rec = trace.children[p.record];
        Genome &child = children[j];
        XorWow child_rng(deriveSeed(breed_seed, j));
        NodeIndexer local_nodes(first_local_node);

        rec.parent1Genes = p.parent1->numGenes();
        rec.parent2Genes = p.parent2->numGenes();
        rec.alignedStreamLen = Genome::crossoverInto(
            child, *p.parent1, *p.parent2, child_rng, &rec.ops);
        rec.ops += child.mutate(cfg_, local_nodes, child_rng);
        rec.childNodeGenes = child.numNodeGenes();
        rec.childConnGenes = child.numConnectionGenes();
    });
    lastBreedSeconds_ = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - breed0)
                            .count();

    // Phase 3, commit (serial, in child order): the nodes each child
    // added get their final keys from the shared indexer, so issued
    // keys stay contiguous across the generation.
    for (Genome &child : children) {
        child.renumberNewNodes(first_local_node, nodeIndexer_);
        if (checkedBuild())
            child.validate(cfg_);
        const int key = child.key();
        new_population.emplace(key, std::move(child));
    }
    GENESYS_ASSERT(new_population.size() <=
                       static_cast<size_t>(cfg_.populationSize),
                   "reproduction overshot populationSize: "
                       << new_population.size() << " > "
                       << cfg_.populationSize);
    return new_population;
}

} // namespace genesys::neat
