/**
 * @file
 * Tests for the compiled-plan cache and its behaviour under the
 * parallel evaluation engine: one compile per genome — ever, since
 * elite plans carry across generations — each plan on its own
 * genome's slot whatever order keys arrive in, and a table bounded by
 * the population size (no leak across generations). Read-only plan
 * sharing across worker threads is checked by test_eval_engine's
 * engine sweep, which compares every plan's results and schedule at
 * 1, 2 and 8 threads against the serial oracle.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/genesys.hh"
#include "env/eval_fixtures.hh"
#include "exec/eval_engine.hh"
#include "nn/plan_cache.hh"

using namespace genesys;
using namespace genesys::exec;
using namespace genesys::nn;

// --- PlanCache unit behaviour ------------------------------------------------

TEST(PlanCacheTest, CompilesOnceAndSharesThePlan)
{
    const auto [cfg, genomes] = oracle::makeGenomes(3, 41);
    PlanCache cache;
    cache.beginGeneration(oracle::handlesOf(genomes));
    EXPECT_EQ(cache.size(), 0u);

    const auto a = cache.acquire(0, genomes[0], cfg);
    const auto b = cache.acquire(0, genomes[0], cfg);
    EXPECT_EQ(a.get(), b.get()); // same object, not a recompile
    EXPECT_EQ(cache.compiles(), 1);
    EXPECT_EQ(cache.hits(), 1);
    EXPECT_EQ(cache.size(), 1u);

    cache.acquire(1, genomes[1], cfg);
    cache.acquire(2, genomes[2], cfg);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.compiles(), 3);
}

TEST(PlanCacheTest, BeginGenerationDropsEveryPlan)
{
    const auto [cfg, genomes] = oracle::makeGenomes(2, 43);
    PlanCache cache;
    cache.beginGeneration(oracle::handlesOf(genomes));
    cache.acquire(0, genomes[0], cfg);
    cache.acquire(1, genomes[1], cfg);
    ASSERT_EQ(cache.size(), 2u);

    // No key survives, so no slot starts filled.
    cache.beginGeneration(std::vector<neat::GenomeHandle>{
        {10, &genomes[0]}, {11, &genomes[1]}});
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.carriedOver(), 0);
    cache.acquire(0, genomes[0], cfg);
    EXPECT_EQ(cache.compiles(), 3);
}

TEST(PlanCacheTest, PlanOutlivesCacheEviction)
{
    // A shared_ptr handed out stays valid after beginGeneration —
    // consumers holding a plan (e.g. GenomeEvalResult) never see it
    // die under them.
    const auto [cfg, genomes] = oracle::makeGenomes(1, 47);
    PlanCache cache;
    cache.beginGeneration(oracle::handlesOf(genomes));
    const auto plan = cache.acquire(0, genomes[0], cfg);
    const std::vector<double> in{0.1, 0.2, 0.3, 0.4};
    PlanScratch s;
    plan->activate(in, s);
    const auto expect = s.outputs;
    cache.beginGeneration(std::vector<neat::GenomeHandle>{});
    plan->activate(in, s);
    EXPECT_EQ(s.outputs, expect);
}

TEST(PlanCacheTest, BeginGenerationCarriesOverSurvivingKeys)
{
    const auto [cfg, genomes] = oracle::makeGenomes(3, 67);
    PlanCache cache;
    cache.beginGeneration(oracle::handlesOf(genomes));
    const auto p0 = cache.acquire(0, genomes[0], cfg);
    cache.acquire(1, genomes[1], cfg);
    cache.acquire(2, genomes[2], cfg);
    ASSERT_EQ(cache.compiles(), 3);

    // Key 0 survives into the next generation at slot 1, behind a
    // fresh key 5; everything else is dropped.
    cache.beginGeneration(std::vector<neat::GenomeHandle>{
        {5, &genomes[1]}, {0, &genomes[0]}});
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.carriedOver(), 1);

    // The surviving key's slot is a hit on the same plan object — an
    // elite costs zero recompiles.
    const auto again = cache.acquire(1, genomes[0], cfg);
    EXPECT_EQ(again.get(), p0.get());
    EXPECT_EQ(cache.compiles(), 3);
    EXPECT_EQ(cache.hits(), 1);

    // The fresh key compiles.
    cache.acquire(0, genomes[1], cfg);
    EXPECT_EQ(cache.compiles(), 4);
}

TEST(PlanCacheTest, HitOnAStructurallyDifferentGenomeIsAnError)
{
    // Carry-over rests on genome keys being unique for the cache's
    // lifetime. Reusing one cache across independent runs (both
    // numbering genomes from 0) must trip the fingerprint assertion
    // instead of silently serving the first run's phenotype.
    const auto [cfg, genomes] = oracle::makeGenomes(2, 79);
    ASSERT_NE(genomes[0].numGenes(), genomes[1].numGenes());
    PlanCache cache;
    cache.beginGeneration(
        std::vector<neat::GenomeHandle>{{0, &genomes[0]}});
    cache.acquire(0, genomes[0], cfg);
    EXPECT_ANY_THROW(cache.beginGeneration(
        std::vector<neat::GenomeHandle>{{0, &genomes[1]}}));
}

TEST(PlanCacheTest, CarriedPlanUnderAnotherTierIsAnError)
{
    // One table serves one numerics tier: a carried-over Reference
    // plan must never be served to a hw-tier consumer.
    const auto [cfg, genomes] = oracle::makeGenomes(1, 83);
    PlanCache cache;
    cache.beginGeneration(oracle::handlesOf(genomes));
    cache.acquire(0, genomes[0], cfg);
    cache.beginGeneration(oracle::handlesOf(genomes));
    EXPECT_ANY_THROW(
        cache.acquire(0, genomes[0], cfg, NumericsTier::HwFaithful));
}

// --- cache under the parallel engine -----------------------------------------

TEST(PlanCacheEngineTest, CacheBoundedAcrossGenerations)
{
    // Re-submitting batches (new generations) must not accumulate
    // plans: the cache is pruned to the submitted keys each
    // generation (all-fresh keys here, so nothing carries over) and
    // its size stays bounded by the population size.
    const auto [cfg, genomes] = oracle::makeGenomes(10, 59);

    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = 2;
    ecfg.episodes = 1;
    EvalEngine engine(ecfg);

    for (int gen = 0; gen < 5; ++gen) {
        // Distinct keys per generation, as in a real run.
        std::vector<neat::GenomeHandle> handles;
        for (size_t i = 0; i < genomes.size(); ++i)
            handles.push_back(
                {gen * 100 + static_cast<int>(i), &genomes[i]});
        engine.evaluateGeneration(handles, cfg,
                                  EvalEngine::sharedEpisodeSeeds(
                                      static_cast<uint64_t>(gen)));
        EXPECT_LE(engine.planCache().size(), genomes.size())
            << "generation " << gen;
    }
    EXPECT_EQ(engine.planCache().size(), genomes.size());
    EXPECT_EQ(engine.planCache().compiles(),
              static_cast<long>(5 * genomes.size()));
}

TEST(PlanCacheEngineTest, ElitesCompileExactlyOnceAcrossGenerations)
{
    // Keys 0 and 1 reappear in every generation (elite semantics: a
    // genome copied unchanged under the same key). Their plans must
    // carry over — the paper's "elite = no EvE work, genome stays in
    // the Genome Buffer" — while every fresh key compiles once.
    const auto [cfg, genomes] = oracle::makeGenomes(8, 73);

    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = 4;
    ecfg.episodes = 2;
    EvalEngine engine(ecfg);

    constexpr int kGenerations = 5;
    std::shared_ptr<const CompiledPlan> elitePlan0;
    for (int gen = 0; gen < kGenerations; ++gen) {
        std::vector<neat::GenomeHandle> handles;
        handles.push_back({0, &genomes[0]}); // elites
        handles.push_back({1, &genomes[1]});
        for (size_t i = 2; i < genomes.size(); ++i)
            handles.push_back(
                {100 * (gen + 1) + static_cast<int>(i), &genomes[i]});
        const auto results = engine.evaluateGeneration(
            handles, cfg, EvalEngine::sharedEpisodeSeeds(5));
        if (gen == 0)
            elitePlan0 = results[0].plan;
        // The elite keeps the very same plan object forever.
        EXPECT_EQ(results[0].plan.get(), elitePlan0.get())
            << "generation " << gen;
        EXPECT_LE(engine.planCache().size(), genomes.size());
    }

    // 2 elite compiles + 6 fresh keys per generation; zero elite
    // recompiles across all later generations.
    const long expected_compiles =
        2 + kGenerations * (static_cast<long>(genomes.size()) - 2);
    EXPECT_EQ(engine.planCache().compiles(), expected_compiles);
    EXPECT_EQ(engine.planCache().carriedOver(),
              2L * (kGenerations - 1));
}

TEST(PlanCacheEngineTest, FullEvolutionLoopNeverRecompilesAnyGenome)
{
    // Whole Population loop: across N generations, the number of
    // compiles must equal the number of distinct genome keys ever
    // submitted — elites (same key re-submitted after their fitness
    // is cleared) re-evaluate without recompiling.
    auto env = env::makeEnvironment("CartPole_v0");
    neat::NeatConfig cfg = env::configForEnvironment(*env);
    cfg.populationSize = 16;
    cfg.fitnessThreshold = 1e18; // never solve: run all generations

    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = 4;
    ecfg.episodes = 2;
    EvalEngine engine(ecfg);

    neat::Population pop(cfg, 2027);
    std::set<int> distinct_keys;
    const auto fitness = [&](const std::vector<neat::GenomeHandle> &batch) {
        for (const auto &h : batch)
            distinct_keys.insert(h.key);
        const auto results = engine.evaluateGeneration(
            batch, cfg, EvalEngine::sharedEpisodeSeeds(9));
        std::vector<double> fits;
        fits.reserve(results.size());
        for (const auto &r : results)
            fits.push_back(r.detail.fitness);
        return fits;
    };
    for (int gen = 0; gen < 6; ++gen)
        ASSERT_FALSE(pop.stepBatch(fitness));

    EXPECT_EQ(engine.planCache().compiles(),
              static_cast<long>(distinct_keys.size()));
    // With cfg.elitism = 2 elites per species surviving each of the 5
    // reproductions, plans were carried across generations.
    EXPECT_GE(engine.planCache().carriedOver(), 5);
}

TEST(PlanCacheEngineTest, UnsortedKeysKeepEachPlanOnItsGenome)
{
    // Three generations whose keys arrive descending, then scattered,
    // then descending again, with elites moving to other batch
    // positions (genome 3 is an elite twice). Every result's plan must
    // be its own genome's plan, and only the elites carry over.
    const auto [cfg, genomes] = oracle::makeGenomes(12, 89);
    const int n = static_cast<int>(genomes.size());
    const auto handle = [&genomes = genomes](int key, int j) {
        return neat::GenomeHandle{key, &genomes[static_cast<size_t>(j)]};
    };
    std::vector<std::vector<neat::GenomeHandle>> gens(3);
    for (int j = 0; j < n; ++j)
        gens[0].push_back(handle(1000 - j, j));
    for (const int j : {7, 3, 11, 0, 9, 5, 1, 10, 2, 8, 4, 6})
        gens[1].push_back(handle(j == 3 || j == 9 ? 1000 - j : 2000 + j, j));
    for (int j = n - 1; j >= 0; --j)
        gens[2].push_back(handle(j == 3   ? 1000 - j
                                 : j == 0 ? 2000 + j
                                          : 3000 + j,
                                 j));

    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = 4;
    ecfg.episodes = 1;
    EvalEngine engine(ecfg);

    XorWow rng(97);
    PlanScratch got;
    PlanScratch want;
    for (const auto &handles : gens) {
        const auto results = engine.evaluateGeneration(
            handles, cfg, EvalEngine::sharedEpisodeSeeds(3));
        ASSERT_EQ(results.size(), handles.size());
        for (size_t i = 0; i < handles.size(); ++i) {
            SCOPED_TRACE("key " + std::to_string(handles[i].key));
            EXPECT_EQ(results[i].genomeKey, handles[i].key);
            const auto fresh =
                CompiledPlan::compileFor(*handles[i].genome, cfg);
            for (int t = 0; t < 4; ++t) {
                const std::vector<double> in{
                    rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                    rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
                results[i].plan->activate(in, got);
                fresh.activate(in, want);
                EXPECT_EQ(got.outputs, want.outputs);
            }
        }
    }
    EXPECT_EQ(engine.planCache().carriedOver(), 4);
    EXPECT_EQ(engine.planCache().compiles(), 3L * n - 4);
}
