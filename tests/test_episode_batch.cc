/**
 * @file
 * The whole-run sweep: fixed-length CartPole System runs under every
 * engine setting the golden digests leave out, each bit-identical to
 * the 1-thread default run of the same configuration. The golden
 * suite already pins E = 1 at 1 and 8 threads under every lane
 * configuration; this sweep adds E = 3 (one genome's episodes side by
 * side, batchEpisodes), 2 threads, feed-forward and recurrent, both
 * numerics tiers, and the fields the digest does not read: the best
 * genome's key and size, and each generation's best genome, gene
 * total, species count and parent reuse. Every report must also carry
 * measured lane occupancy.
 * Equality below the System — engine and kernel against the serial
 * oracle — lives in test_eval_engine and test_wave_scheduler.
 */

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <tuple>

#include "core/genesys.hh"
#include "core/run_digest.hh"

using namespace genesys;

namespace
{

struct SystemCase
{
    int episodes;
    bool feedForward;
    nn::NumericsTier tier;
    int threads;
    bool batchEpisodes = true;
    bool heterogeneousLanes = true;
};

std::vector<SystemCase>
systemCases()
{
    std::vector<SystemCase> cases;
    for (const nn::NumericsTier tier :
         {nn::NumericsTier::Reference, nn::NumericsTier::HwFaithful}) {
        for (const int episodes : {1, 3}) {
            for (const bool ff : {true, false}) {
                cases.push_back({episodes, ff, tier, 2});
                cases.push_back({episodes, ff, tier, 8});
                cases.push_back({episodes, ff, tier, 1, false, true});
                // At E > 1 a shard holds one genome's episodes
                // whatever heterogeneousLanes says.
                if (episodes == 1)
                    cases.push_back({episodes, ff, tier, 1, true, false});
            }
        }
    }
    return cases;
}

std::string
systemCaseName(const ::testing::TestParamInfo<SystemCase> &info)
{
    const SystemCase &c = info.param;
    std::string name = std::to_string(c.episodes);
    name += c.feedForward ? "_ff" : "_rec";
    name += c.tier == nn::NumericsTier::HwFaithful ? "_hw_t" : "_t";
    name += std::to_string(c.threads);
    name += c.batchEpisodes ? "" : "_unbatched";
    name += c.heterogeneousLanes ? "" : "_homogeneous";
    return "E" + name;
}

struct RunRecord
{
    core::RunSummary summary;
    std::vector<core::GenerationReport> reports;
};

/** Four generations of 50 genomes, never solved, so every run breeds. */
RunRecord
runSystem(const SystemCase &c)
{
    core::SystemConfig cfg;
    cfg.envName = "CartPole_v0";
    cfg.maxGenerations = 4;
    cfg.episodesPerEval = c.episodes;
    cfg.seed = 23;
    cfg.numThreads = c.threads;
    cfg.batchEpisodes = c.batchEpisodes;
    cfg.heterogeneousLanes = c.heterogeneousLanes;
    cfg.numericsTier = c.tier;
    cfg.tweakNeat = [ff = c.feedForward](neat::NeatConfig &ncfg) {
        ncfg.populationSize = 50;
        ncfg.feedForward = ff;
        ncfg.fitnessThreshold = std::numeric_limits<double>::infinity();
    };
    core::System sys(cfg);
    // The sweep compares runs built from the same code, so a tier the
    // System fails to forward would pass it unseen.
    EXPECT_EQ(sys.evalEngine().config().numericsTier, c.tier);
    RunRecord run;
    run.summary = sys.run();
    run.reports = sys.reports();
    return run;
}

/** The 1-thread default run of (E, mode, tier), run once per suite. */
const RunRecord &
reference(const SystemCase &c)
{
    static std::map<std::tuple<int, bool, nn::NumericsTier>, RunRecord>
        runs;
    const auto key = std::make_tuple(c.episodes, c.feedForward, c.tier);
    auto it = runs.find(key);
    if (it == runs.end())
        it = runs.emplace(key, runSystem({c.episodes, c.feedForward,
                                          c.tier, 1}))
                 .first;
    return it->second;
}

} // namespace

class SystemSweep : public ::testing::TestWithParam<SystemCase>
{
};

TEST_P(SystemSweep, MatchesOneThreadDefault)
{
    const SystemCase &c = GetParam();
    const RunRecord &ref = reference(c);
    const RunRecord run = runSystem(c);

    EXPECT_EQ(oracle::digestFields(run.summary, run.reports),
              oracle::digestFields(ref.summary, ref.reports));
    EXPECT_EQ(run.summary.bestGenome.key(), ref.summary.bestGenome.key());
    EXPECT_EQ(run.summary.bestGenome.numGenes(),
              ref.summary.bestGenome.numGenes());
    ASSERT_EQ(run.reports.size(), 4u);
    ASSERT_EQ(ref.reports.size(), 4u);
    for (size_t g = 0; g < ref.reports.size(); ++g) {
        SCOPED_TRACE("generation " + std::to_string(g));
        const neat::GenerationStats &a = run.reports[g].algo;
        const neat::GenerationStats &b = ref.reports[g].algo;
        EXPECT_EQ(a.bestGenomeKey, b.bestGenomeKey);
        EXPECT_EQ(a.totalGenes, b.totalGenes);
        EXPECT_EQ(a.numSpecies, b.numSpecies);
        EXPECT_EQ(a.maxParentReuse, b.maxParentReuse);
        EXPECT_GT(run.reports[g].batches.waveLaneSlotSteps, 0);
        EXPECT_GT(ref.reports[g].batches.waveLaneSlotSteps, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(EpisodesThreadsKnobs, SystemSweep,
                         ::testing::ValuesIn(systemCases()),
                         systemCaseName);
