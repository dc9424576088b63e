/**
 * @file
 * Tests for speciation (Section II-D).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "exec/thread_pool.hh"
#include "neat/reproduction.hh"
#include "neat/speciate.hh"
#include "neat/species.hh"
#include "neat/stagnation.hh"
#include "persist/snapshot.hh"

using namespace genesys;
using namespace genesys::neat;

namespace
{

NeatConfig
speciesConfig()
{
    NeatConfig cfg;
    cfg.numInputs = 2;
    cfg.numOutputs = 1;
    cfg.populationSize = 20;
    cfg.compatibilityThreshold = 3.0;
    return cfg;
}

std::map<int, Genome>
makePopulation(const NeatConfig &cfg, int n, uint64_t seed)
{
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(seed);
    std::map<int, Genome> pop;
    for (int i = 0; i < n; ++i)
        pop.emplace(i, Genome::createNew(i, cfg, idx, rng));
    return pop;
}

} // namespace

TEST(SpeciesSet, EveryGenomeAssignedExactlyOnce)
{
    const auto cfg = speciesConfig();
    auto pop = makePopulation(cfg, 20, 2);
    SpeciesSet set(cfg);
    set.speciate(pop, 0);

    std::set<int> seen;
    for (const auto &[sk, sp] : set.species()) {
        for (int mk : sp.memberKeys) {
            EXPECT_TRUE(seen.insert(mk).second)
                << "genome " << mk << " in two species";
        }
    }
    EXPECT_EQ(seen.size(), pop.size());
}

TEST(SpeciesSet, IdenticalGenomesShareOneSpecies)
{
    auto cfg = speciesConfig();
    cfg.weight.initStdev = 0.0; // identical weights everywhere
    cfg.bias.initStdev = 0.0;
    auto pop = makePopulation(cfg, 10, 3);
    SpeciesSet set(cfg);
    set.speciate(pop, 0);
    EXPECT_EQ(set.count(), 1u);
}

TEST(SpeciesSet, DistantGenomesSplitSpecies)
{
    auto cfg = speciesConfig();
    cfg.compatibilityThreshold = 0.5;
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(4);
    std::map<int, Genome> pop;
    // Two structurally different clusters.
    for (int i = 0; i < 5; ++i)
        pop.emplace(i, Genome::createNew(i, cfg, idx, rng));
    for (int i = 5; i < 10; ++i) {
        auto g = Genome::createNew(i, cfg, idx, rng);
        for (int j = 0; j < 4; ++j)
            g.mutateAddNode(cfg, idx, rng);
        pop.emplace(i, std::move(g));
    }
    SpeciesSet set(cfg);
    set.speciate(pop, 0);
    EXPECT_GE(set.count(), 2u);
}

TEST(SpeciesSet, SpeciesKeysStableAcrossGenerations)
{
    const auto cfg = speciesConfig();
    auto pop = makePopulation(cfg, 10, 5);
    SpeciesSet set(cfg);
    set.speciate(pop, 0);
    const auto keys_before = set.species();
    // Same population next generation: same species keys survive.
    set.speciate(pop, 1);
    for (const auto &[sk, sp] : set.species())
        EXPECT_TRUE(keys_before.count(sk));
}

TEST(SpeciesSet, RemoveDropsMembers)
{
    const auto cfg = speciesConfig();
    auto pop = makePopulation(cfg, 10, 6);
    SpeciesSet set(cfg);
    set.speciate(pop, 0);
    const int sk = set.species().begin()->first;
    const int member = set.species().at(sk).memberKeys.front();
    set.remove(sk);
    EXPECT_FALSE(set.species().count(sk));
    for (const auto &[other, sp] : set.species()) {
        EXPECT_EQ(std::count(sp.memberKeys.begin(), sp.memberKeys.end(),
                             member),
                  0);
    }
}

TEST(SpeciesSet, RepresentativeIsAMember)
{
    const auto cfg = speciesConfig();
    auto pop = makePopulation(cfg, 15, 7);
    SpeciesSet set(cfg);
    set.speciate(pop, 0);
    for (const auto &[sk, sp] : set.species()) {
        EXPECT_TRUE(std::find(sp.memberKeys.begin(), sp.memberKeys.end(),
                              sp.representative.key()) !=
                    sp.memberKeys.end());
    }
}

TEST(SpeciesSet, MemberFitnessesReadFromPopulation)
{
    const auto cfg = speciesConfig();
    auto pop = makePopulation(cfg, 5, 8);
    for (auto &[gk, g] : pop)
        g.setFitness(gk * 1.0);
    SpeciesSet set(cfg);
    set.speciate(pop, 0);
    double lowest = 1e9, highest = -1e9, total = 0.0;
    for (const SpeciesStanding &st : Stagnation(cfg).update(set, pop, 0)) {
        lowest = std::min(lowest, st.memberMin);
        highest = std::max(highest, st.memberMax);
        const size_t members = set.species().at(st.key).memberKeys.size();
        total += st.memberMean * static_cast<double>(members);
    }
    EXPECT_DOUBLE_EQ(lowest, 0.0);
    EXPECT_DOUBLE_EQ(highest, 4.0);
    EXPECT_DOUBLE_EQ(total, 0.0 + 1 + 2 + 3 + 4);
}

TEST(SpeciesSet, UnevaluatedMemberFitnessThrows)
{
    const auto cfg = speciesConfig();
    auto pop = makePopulation(cfg, 3, 9);
    SpeciesSet set(cfg);
    set.speciate(pop, 0);
    EXPECT_ANY_THROW(Stagnation(cfg).update(set, pop, 0));
}

namespace
{

/**
 * The next generation of `pop`, with fresh keys from `next_key`: a
 * few parents survive unchanged, the rest are children of two random
 * parents, mutated 0 to 3 times, so species split, merge and die out
 * between generations.
 */
std::map<int, Genome>
grownGeneration(const std::map<int, Genome> &pop, const NeatConfig &cfg,
                NodeIndexer &idx, XorWow &rng, int &next_key)
{
    std::vector<const Genome *> parents;
    for (const auto &[gk, g] : pop)
        parents.push_back(&g);
    const auto any = [&] {
        return parents[rng.uniformInt(static_cast<uint32_t>(parents.size()))];
    };
    std::map<int, Genome> next;
    for (int i = 0; i < 4; ++i) {
        const Genome *elite = any();
        next.emplace(elite->key(), *elite);
    }
    while (next.size() < pop.size()) {
        const int key = next_key++;
        Genome child = Genome::crossover(key, *any(), *any(), rng);
        for (int m = rng.uniformInt(0, 3); m > 0; --m)
            child.mutate(cfg, idx, rng);
        next.emplace(key, std::move(child));
    }
    return next;
}

void
expectSameSpecies(const SpeciesSet &want, const SpeciesSet &got)
{
    EXPECT_EQ(want.nextSpeciesKey(), got.nextSpeciesKey());
    ASSERT_EQ(want.count(), got.count());
    auto it = got.species().begin();
    for (const auto &[sk, sp] : want.species()) {
        const Species &other = (it++)->second;
        SCOPED_TRACE("species " + std::to_string(sk));
        EXPECT_EQ(sk, other.key);
        EXPECT_EQ(sp.key, other.key);
        EXPECT_EQ(sp.lastImprovedGeneration, other.lastImprovedGeneration);
        EXPECT_EQ(sp.memberKeys, other.memberKeys);
        EXPECT_EQ(persist::encodeGenomeLossless(sp.representative),
                  persist::encodeGenomeLossless(other.representative));
    }
}

} // namespace

TEST(SpeciesSet, PoolMatchesSerialLoop)
{
    // Every distance runs on the executor, those to species founded
    // during the assignment included. Whatever the executor, the
    // partition must be the one the serial reference loop builds.
    exec::ThreadPool pool(4);
    const Executor on_pool =
        [&pool](size_t count, const std::function<void(size_t)> &body) {
            pool.parallelFor(count, [&body](size_t i, int) { body(i); });
        };
    size_t most_species = 0;
    for (const double threshold : {0.5, 1.0, 3.0, 4.5}) {
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(::testing::Message() << "threshold " << threshold
                                              << ", seed " << seed);
            NeatConfig cfg = speciesConfig();
            cfg.numInputs = 4;
            cfg.numOutputs = 2;
            cfg.compatibilityThreshold = threshold;
            NodeIndexer idx(cfg.numOutputs);
            XorWow rng(seed);
            std::map<int, Genome> pop;
            int next_key = 0;
            for (; next_key < 48; ++next_key) {
                Genome g = Genome::createNew(next_key, cfg, idx, rng);
                for (int m = rng.uniformInt(0, 5); m > 0; --m)
                    g.mutate(cfg, idx, rng);
                pop.emplace(next_key, std::move(g));
            }

            SpeciesSet serial(cfg), inline_set(cfg), pooled(cfg);
            for (int gen = 0; gen < 4; ++gen) {
                SCOPED_TRACE("generation " + std::to_string(gen));
                oracle::speciate(serial, pop, gen, cfg);
                inline_set.speciate(pop, gen);
                pooled.speciate(pop, gen, on_pool);
                expectSameSpecies(serial, inline_set);
                expectSameSpecies(serial, pooled);
                most_species = std::max(most_species, serial.count());
                pop = grownGeneration(pop, cfg, idx, rng, next_key);
            }
        }
    }
    // The low thresholds found many species mid-assignment.
    EXPECT_GE(most_species, 10u);
}
