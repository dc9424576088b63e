/**
 * @file
 * Tests for species stagnation tracking.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "neat/stagnation.hh"

using namespace genesys;
using namespace genesys::neat;

namespace
{

struct StagnationFixture : ::testing::Test
{
    StagnationFixture()
    {
        cfg.numInputs = 2;
        cfg.numOutputs = 1;
        cfg.maxStagnation = 3;
        cfg.speciesElitism = 0;
        NodeIndexer idx(cfg.numOutputs);
        XorWow rng(1);
        for (int i = 0; i < 6; ++i)
            pop.emplace(i, Genome::createNew(i, cfg, idx, rng));
    }

    void
    setFitness(double f)
    {
        for (auto &[gk, g] : pop)
            g.setFitness(f);
    }

    NeatConfig cfg;
    std::map<int, Genome> pop;
};

} // namespace

TEST_F(StagnationFixture, ImprovingSpeciesNeverStagnant)
{
    SpeciesSet set(cfg);
    set.speciate(pop, 0);
    Stagnation stag(cfg);
    for (int gen = 0; gen < 10; ++gen) {
        setFitness(static_cast<double>(gen)); // always improving
        for (const SpeciesStanding &st : stag.update(set, pop, gen))
            EXPECT_FALSE(st.stagnant) << "generation " << gen;
    }
}

TEST_F(StagnationFixture, FlatFitnessStagnatesAfterThreshold)
{
    SpeciesSet set(cfg);
    set.speciate(pop, 0);
    Stagnation stag(cfg);
    setFitness(1.0);
    bool stagnated = false;
    int stagnated_at = -1;
    for (int gen = 0; gen < 8 && !stagnated; ++gen) {
        for (const SpeciesStanding &st : stag.update(set, pop, gen)) {
            if (st.stagnant) {
                stagnated = true;
                stagnated_at = gen;
            }
        }
    }
    EXPECT_TRUE(stagnated);
    // Last improvement at gen 0, maxStagnation 3 -> stagnant at gen 4.
    EXPECT_EQ(stagnated_at, 4);
}

TEST_F(StagnationFixture, SpeciesElitismProtectsBest)
{
    cfg.speciesElitism = 1;
    SpeciesSet set(cfg);
    set.speciate(pop, 0);
    Stagnation stag(cfg);
    setFitness(1.0);
    for (int gen = 0; gen < 8; ++gen) {
        const auto result = stag.update(set, pop, gen);
        // With a single species and elitism 1, it can never stagnate.
        for (const SpeciesStanding &st : result)
            EXPECT_FALSE(st.stagnant);
    }
}

TEST_F(StagnationFixture, SpeciesFitnessIsMemberMax)
{
    SpeciesSet set(cfg);
    set.speciate(pop, 0);
    int i = 0;
    for (auto &[gk, g] : pop)
        g.setFitness(i++ < 3 ? 0.0 : 10.0);

    Stagnation stag(cfg);
    stag.update(set, pop, 0);
    // Each species' best fitness so far is its best member's, not a
    // summary such as the mean.
    double max_val = 0.0;
    for (const auto &[sk, sp] : set.species()) {
        double best = -std::numeric_limits<double>::infinity();
        for (int mk : sp.memberKeys)
            best = std::max(best, pop.at(mk).fitness());
        EXPECT_EQ(sp.bestFitness, best) << "species " << sk;
        max_val = std::max(max_val, sp.bestFitness);
    }
    EXPECT_DOUBLE_EQ(max_val, 10.0);
}

TEST_F(StagnationFixture, BestFitnessTracksImprovement)
{
    SpeciesSet set(cfg);
    set.speciate(pop, 0);
    Stagnation stag(cfg);
    for (const auto &[sk, sp] : set.species())
        EXPECT_EQ(sp.bestFitness, -std::numeric_limits<double>::infinity());
    setFitness(1.0);
    stag.update(set, pop, 0);
    setFitness(2.0);
    stag.update(set, pop, 1);
    setFitness(1.5); // worse: the best and its generation stay
    stag.update(set, pop, 2);
    for (const auto &[sk, sp] : set.species()) {
        EXPECT_DOUBLE_EQ(sp.bestFitness, 2.0);
        EXPECT_EQ(sp.lastImprovedGeneration, 1);
    }
}

TEST_F(StagnationFixture, TiedSpeciesKeepKeyOrderPastInsertionSortSize)
{
    // 24 species of equal fitness: more than the 16 elements below
    // which libstdc++'s std::sort falls back to insertion sort, so an
    // unstable sort would order the ties by its partitioning. Sorted
    // stably, ties stay in species-key order and speciesElitism
    // protects the highest keys.
    constexpr int kSpecies = 24;
    cfg.speciesElitism = 3;
    NodeIndexer idx(cfg.numOutputs);
    XorWow rng(7);
    std::map<int, Genome> many;
    std::map<int, Species> species;
    for (int i = 0; i < kSpecies; ++i) {
        Genome g = Genome::createNew(i, cfg, idx, rng);
        g.setFitness(1.0);
        Species sp;
        sp.key = 3 * i + 1;
        // Best fitness never beaten since generation 0: every species
        // is past maxStagnation unless protected.
        sp.bestFitness = 2.0;
        sp.representative = g;
        sp.memberKeys = {i};
        species.emplace(sp.key, std::move(sp));
        many.emplace(i, std::move(g));
    }
    SpeciesSet set(cfg);
    set.restore(std::move(species), 3 * kSpecies + 1);
    Stagnation stag(cfg);
    const std::vector<SpeciesStanding> standings = stag.update(set, many, 10);
    ASSERT_EQ(standings.size(), static_cast<size_t>(kSpecies));
    for (int i = 0; i < kSpecies; ++i) {
        EXPECT_EQ(standings[static_cast<size_t>(i)].key, 3 * i + 1)
            << "position " << i;
        EXPECT_EQ(standings[static_cast<size_t>(i)].stagnant,
                  i < kSpecies - cfg.speciesElitism)
            << "species " << 3 * i + 1;
    }
}
