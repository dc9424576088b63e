/**
 * @file
 * Tests for speciation (Section II-D).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "neat/reproduction.hh"
#include "neat/species.hh"
#include "neat/stagnation.hh"

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
