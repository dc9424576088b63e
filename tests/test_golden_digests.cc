/**
 * @file
 * Golden determinism lock: fixed-seed multi-generation runs hashed
 * down to one 64-bit digest per configuration, compared against
 * committed constants. The evaluation-path sweeps compare the
 * library against the serial oracle, or one run against another; this
 * suite pins the absolute bit pattern, so a change that breaks every
 * path in the *same* way — a reordered accumulation in the episode
 * reduction, a perturbed seed derivation, an altered hardware-model
 * constant — still fails ctest without needing a pre-change binary to
 * diff against. test_episode_batch's whole-run sweep covers what these
 * runs leave out (E = 3, 2 threads, fields outside the digest).
 *
 * The digests (oracle::digestFields, tests/oracle/core/run_digest)
 * fold in the RunSummary totals and every generation report's
 * algorithm, workload and hardware-cycle fields, over 6 generations of
 * CartPole and Atari-RAM populations, feed-forward and recurrent, and
 * of a feed-forward LunarLander population.
 * They are toolchain-locked by construction: a different libm or FP
 * contraction regime may legitimately produce different bits. On such
 * a change — or an *intentional* semantic change — regenerate with
 *
 *     GENESYS_PRINT_DIGESTS=1 ./tests/test_golden_digests
 *
 * and update the constants below, noting why in the commit.
 *
 * Every configuration must reproduce its constant under each lane
 * configuration of the episode loop — waveLanes-wide shards (the
 * default), heterogeneousLanes = false and batchEpisodes = false —
 * whichever worker claims which genome: the strongest cross-schedule
 * identity statement in the tree.
 *
 * The numerics tier, by contrast, selects the constant: the tiers are
 * intentionally different lowerings with different bit patterns, so
 * each configuration carries one constant per tier (Reference and
 * HwFaithful) and sets SystemConfig::numericsTier to match. The Hw*
 * tests make the same cross-thread/cross-mode/cross-resume identity
 * statement for the quantized tier that the originals make for the
 * float tier.
 *
 * The Resumed* variants run the same configurations interrupted at a
 * mid-run generation barrier — checkpoint, destroy the System, resume
 * in a fresh one — and must land on the SAME constants: the
 * persist:: save/load boundary is invisible to every digested bit.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>

#include "core/genesys.hh"
#include "core/run_digest.hh"
#include "nn/numerics.hh"
#include "persist/snapshot.hh"

using namespace genesys;
using oracle::digestFields;
using oracle::fold;

namespace
{

// The constants that HwTierMovesDigests holds apart: the two tiers of
// one configuration, on the workloads whose episodes they score
// differently.
constexpr uint64_t kAtariRamFeedForward = 0x0c2b83e79f4d6cd4ull;
constexpr uint64_t kAtariRamRecurrent = 0x8cd2f0b7e7b2976aull;
constexpr uint64_t kLunarLanderFeedForward = 0xb5ff0454d6bfb1edull;
constexpr uint64_t kHwAtariRamFeedForward = 0x6f0429717d4d0369ull;
constexpr uint64_t kHwAtariRamRecurrent = 0x4809cadcf81e17abull;
constexpr uint64_t kHwLunarLanderFeedForward = 0x15d1c7dba64d032cull;

/** The fixed configuration every golden run uses. */
core::SystemConfig
goldenConfig(const std::string &envName, bool feed_forward, int threads,
             nn::NumericsTier tier = nn::NumericsTier::Reference,
             bool batchEpisodes = true, bool heterogeneousLanes = true)
{
    core::SystemConfig cfg;
    cfg.numericsTier = tier;
    cfg.batchEpisodes = batchEpisodes;
    cfg.heterogeneousLanes = heterogeneousLanes;
    cfg.envName = envName;
    cfg.maxGenerations = 6;
    cfg.episodesPerEval = 1;
    cfg.seed = 20260727;
    cfg.numThreads = threads;
    // Small fixed population: digest stability matters, search
    // quality does not, and the Atari-RAM genomes are wide (128
    // inputs).
    cfg.tweakNeat = [feed_forward](neat::NeatConfig &ncfg) {
        ncfg.populationSize = 32;
        ncfg.feedForward = feed_forward;
    };
    return cfg;
}

/**
 * The golden CartPole feed-forward configuration made to speciate:
 * a tight compatibility threshold, short stagnation and no solve, for
 * 16 generations. Every other golden run keeps one species
 * throughout; this one spawns new species, re-picks representatives
 * and removes stagnant species.
 */
core::SystemConfig
manySpeciesConfig(int threads)
{
    core::SystemConfig cfg = goldenConfig("CartPole_v0", true, threads);
    cfg.maxGenerations = 16;
    cfg.tweakNeat = [base = cfg.tweakNeat](neat::NeatConfig &ncfg) {
        base(ncfg);
        ncfg.compatibilityThreshold = 1.5;
        ncfg.maxStagnation = 3;
        ncfg.fitnessThreshold = std::numeric_limits<double>::infinity();
    };
    return cfg;
}

/** A run's summary and per-generation reports: what the digests read. */
struct RunRecord
{
    core::RunSummary summary;
    std::vector<core::GenerationReport> reports;
};

/** digestFields plus the species count of every generation. */
uint64_t
digestWithSpecies(const RunRecord &rec)
{
    uint64_t h = digestFields(rec.summary, rec.reports);
    for (const core::GenerationReport &r : rec.reports)
        fold(h, static_cast<uint64_t>(r.algo.numSpecies));
    return h;
}

/** Run `cfg` to its horizon in one System. */
RunRecord
runFresh(const core::SystemConfig &cfg)
{
    core::System sys(cfg);
    RunRecord rec;
    rec.summary = sys.run();
    rec.reports = sys.reports();
    return rec;
}

/** Run a fixed 6-generation system and digest its observable state. */
uint64_t
digestRun(const std::string &envName, bool feed_forward, int threads,
          nn::NumericsTier tier, bool batchEpisodes = true,
          bool heterogeneousLanes = true)
{
    const RunRecord rec =
        runFresh(goldenConfig(envName, feed_forward, threads, tier,
                              batchEpisodes, heterogeneousLanes));
    return digestFields(rec.summary, rec.reports);
}

/**
 * The run of `cfg`, interrupted at the `split` generation barrier:
 * the first System checkpoints and is destroyed, a second one resumes
 * from the snapshot file and runs the remaining horizon. The record
 * it returns is the uninterrupted run's, so the committed constants
 * double as the resumed-run oracle — the strongest statement that
 * save/load crosses the boundary bit-identically. `tag` names the
 * checkpoint directory.
 */
RunRecord
runResumed(const core::SystemConfig &cfg, int split, const std::string &tag)
{
    namespace fs = std::filesystem;
    std::ostringstream dn;
    // PID-qualified so two suite processes on one machine (e.g. two
    // build trees' ctest runs) never share a checkpoint directory;
    // tier-qualified so the Reference and HwFaithful variants of one
    // configuration never share one either.
    dn << "genesys-golden-ckpt-" << tag << '-' << cfg.numThreads << '-'
       << nn::numericsTierName(cfg.numericsTier) << '-' << ::getpid();
    const fs::path dir = fs::temp_directory_path() / dn.str();
    fs::remove_all(dir);

    core::SystemConfig first = cfg;
    first.checkpointDir = dir.string();

    std::vector<core::GenerationReport> reports;
    bool solved = false;
    double best_fitness = 0.0;
    {
        core::System a(first);
        for (int g = 0; g < split && !solved; ++g)
            solved = a.stepGeneration();
        reports = a.reports();
        if (solved && a.population().hasBest())
            best_fitness = a.population().bestGenome().fitness();
    } // first "process" dies here

    EXPECT_FALSE(solved)
        << tag << " solved before the split generation " << split
        << "; the save/load boundary was not exercised — lower split";
    if (!solved) {
        const std::string snap =
            (dir / persist::snapshotFileName(split)).string();
        EXPECT_TRUE(fs::exists(snap)) << "missing checkpoint " << snap;
        core::SystemConfig rest = cfg;
        rest.maxGenerations = cfg.maxGenerations - split;
        core::System b(rest);
        b.resumeFrom(snap);
        const core::RunSummary sb = b.run();
        solved = sb.solved;
        best_fitness = sb.bestFitness;
        reports.insert(reports.end(), b.reports().begin(),
                       b.reports().end());
    }
    fs::remove_all(dir);

    // Reconstruct the uninterrupted run's summary: run() derives it
    // from the best genome and the report list, both of which carry
    // across the boundary.
    RunRecord rec;
    core::RunSummary &s = rec.summary;
    s.solved = solved;
    s.generations = static_cast<int>(reports.size());
    s.bestFitness = best_fitness;
    for (const core::GenerationReport &r : reports) {
        s.totalEvolutionEnergyJ += r.hw.evolutionEnergyJ;
        s.totalInferenceEnergyJ += r.hw.inferenceEnergyJ;
        s.totalEvolutionSeconds += r.hw.evolutionSeconds;
        s.totalInferenceSeconds += r.hw.inferenceSeconds();
    }
    rec.reports = std::move(reports);
    return rec;
}

/** digestRun's fields for the same run interrupted at `split`. */
uint64_t
digestResumedRun(const std::string &envName, bool feed_forward,
                 int threads, int split, nn::NumericsTier tier)
{
    const RunRecord rec = runResumed(
        goldenConfig(envName, feed_forward, threads, tier), split,
        envName + (feed_forward ? "-ff" : "-rec"));
    return digestFields(rec.summary, rec.reports);
}

/**
 * Check one configuration against its golden digest at 1 thread, and
 * that 8 threads and the other two episode-loop lane configurations
 * (at 1 thread) reproduce the same bits. When GENESYS_PRINT_DIGESTS
 * is set, print the measured value for regeneration instead of
 * relying on the failure output.
 */
void
expectGolden(const std::string &envName, bool feed_forward,
             uint64_t golden,
             nn::NumericsTier tier = nn::NumericsTier::Reference)
{
    const uint64_t d1 = digestRun(envName, feed_forward, 1, tier);
    if (std::getenv("GENESYS_PRINT_DIGESTS") != nullptr) {
        printf("golden digest %-16s %s %-9s: 0x%016llxull\n",
               envName.c_str(), feed_forward ? "ff " : "rec",
               nn::numericsTierName(tier).c_str(),
               static_cast<unsigned long long>(d1));
    }
    EXPECT_EQ(d1, golden)
        << envName << (feed_forward ? " feed-forward" : " recurrent")
        << " (" << nn::numericsTierName(tier) << " tier)"
        << " digest drifted; if the change is intentional, regenerate "
           "with GENESYS_PRINT_DIGESTS=1 ./tests/test_golden_digests";
    EXPECT_EQ(digestRun(envName, feed_forward, 8, tier), d1)
        << envName << " digest differs at 8 threads";
    EXPECT_EQ(digestRun(envName, feed_forward, 1, tier, true, false), d1)
        << envName << " digest differs with heterogeneousLanes=false";
    EXPECT_EQ(digestRun(envName, feed_forward, 1, tier, false, true), d1)
        << envName << " digest differs with batchEpisodes=false";
}

/**
 * Check that a run interrupted at the `split` generation barrier and
 * resumed in a fresh System reproduces the SAME committed constant as
 * the uninterrupted run, at 1 and 8 threads. `split` must precede the
 * configuration's solve generation or there is no barrier to cross
 * (the CartPole configs solve on generation 2's evaluation, so they
 * split at 2; the Atari ones run all 6 and split at 3).
 */
void
expectGoldenResumed(const std::string &envName, bool feed_forward,
                    int split, uint64_t golden,
                    nn::NumericsTier tier = nn::NumericsTier::Reference)
{
    const uint64_t d1 =
        digestResumedRun(envName, feed_forward, 1, split, tier);
    EXPECT_EQ(d1, golden)
        << envName << (feed_forward ? " feed-forward" : " recurrent")
        << " (" << nn::numericsTierName(tier) << " tier)"
        << " resumed-run digest differs from the uninterrupted "
           "golden constant: checkpoint/resume is not bit-identical";
    EXPECT_EQ(
        digestResumedRun(envName, feed_forward, 8, split, tier), d1)
        << envName << " resumed digest differs at 8 threads";
}

} // namespace

TEST(GoldenDigestTest, CartPoleFeedForward)
{
    expectGolden("CartPole_v0", true, 0x91ab83f9a21094c8ull);
}

TEST(GoldenDigestTest, CartPoleRecurrent)
{
    expectGolden("CartPole_v0", false, 0x13c74606f16213fbull);
}

TEST(GoldenDigestTest, AtariRamFeedForward)
{
    expectGolden("AirRaid-ram-v0", true, kAtariRamFeedForward);
}

TEST(GoldenDigestTest, AtariRamRecurrent)
{
    expectGolden("AirRaid-ram-v0", false, kAtariRamRecurrent);
}

TEST(GoldenDigestTest, LunarLanderFeedForward)
{
    expectGolden("LunarLander_v2", true, kLunarLanderFeedForward);
}

TEST(GoldenDigestTest, CartPoleManySpecies)
{
    constexpr uint64_t kGolden = 0xdeed1e52fe75c27eull;
    const RunRecord rec = runFresh(manySpeciesConfig(1));
    const uint64_t d1 = digestWithSpecies(rec);
    if (std::getenv("GENESYS_PRINT_DIGESTS") != nullptr) {
        printf("golden digest %-16s %s %-9s: 0x%016llxull\n",
               "many-species", "ff ", "reference",
               static_cast<unsigned long long>(d1));
        for (const core::GenerationReport &r : rec.reports)
            printf("  generation %d: %d species\n", r.algo.generation,
                   r.algo.numSpecies);
    }
    EXPECT_EQ(d1, kGolden)
        << "many-species CartPole digest drifted; if the change is "
           "intentional, regenerate with GENESYS_PRINT_DIGESTS=1 "
           "./tests/test_golden_digests";
    EXPECT_EQ(digestWithSpecies(runFresh(manySpeciesConfig(8))), d1)
        << "many-species digest differs at 8 threads";

    // The configuration must keep covering what it was added for:
    // several species, and stagnation removing some of them.
    ASSERT_EQ(rec.reports.size(), 16u);
    int most = 0;
    bool removed = false;
    for (size_t g = 0; g < rec.reports.size(); ++g) {
        most = std::max(most, rec.reports[g].algo.numSpecies);
        if (g > 0 && rec.reports[g].algo.numSpecies <
                         rec.reports[g - 1].algo.numSpecies)
            removed = true;
    }
    EXPECT_GE(most, 3);
    EXPECT_TRUE(removed);
}

TEST(GoldenDigestTest, ResumedCartPoleManySpecies)
{
    // Split at the generation-10 barrier: that generation's
    // reproduction removes four stagnant species, so the verdict
    // rests on the stagnation state the checkpoint carried.
    for (int threads : {1, 8}) {
        const RunRecord rec =
            runResumed(manySpeciesConfig(threads), 10, "many-species");
        EXPECT_EQ(digestWithSpecies(rec), 0xdeed1e52fe75c27eull)
            << "many-species resumed digest differs at " << threads
            << " threads: checkpoint/resume is not bit-identical";
    }
}

TEST(GoldenDigestTest, ResumedCartPoleFeedForward)
{
    expectGoldenResumed("CartPole_v0", true, 2, 0x91ab83f9a21094c8ull);
}

TEST(GoldenDigestTest, ResumedCartPoleRecurrent)
{
    expectGoldenResumed("CartPole_v0", false, 2, 0x13c74606f16213fbull);
}

TEST(GoldenDigestTest, ResumedAtariRamFeedForward)
{
    expectGoldenResumed("AirRaid-ram-v0", true, 3, kAtariRamFeedForward);
}

TEST(GoldenDigestTest, ResumedAtariRamRecurrent)
{
    expectGoldenResumed("AirRaid-ram-v0", false, 3, kAtariRamRecurrent);
}

// --- HwFaithful tier -------------------------------------------------
// The same configurations lowered through the Q6.10 quantized tier.
// The tiers are numerically distinct, so the constants differ in
// general. CartPole's coincide with the reference ones: its three
// generations (solved on the third) score every episode to the same
// length under both tiers, so no digested field tells them apart.
// The identity statements are the same: bit-identical at 1 vs 8
// threads, across episode-loop chunkings, and across a
// checkpoint/resume boundary (which also exercises the snapshot's
// recorded-tier provenance field on the happy path).

TEST(GoldenDigestTest, HwCartPoleFeedForward)
{
    expectGolden("CartPole_v0", true, 0x91ab83f9a21094c8ull,
                 nn::NumericsTier::HwFaithful);
}

TEST(GoldenDigestTest, HwCartPoleRecurrent)
{
    expectGolden("CartPole_v0", false, 0x13c74606f16213fbull,
                 nn::NumericsTier::HwFaithful);
}

TEST(GoldenDigestTest, HwAtariRamFeedForward)
{
    expectGolden("AirRaid-ram-v0", true, kHwAtariRamFeedForward,
                 nn::NumericsTier::HwFaithful);
}

TEST(GoldenDigestTest, HwAtariRamRecurrent)
{
    expectGolden("AirRaid-ram-v0", false, kHwAtariRamRecurrent,
                 nn::NumericsTier::HwFaithful);
}

TEST(GoldenDigestTest, HwLunarLanderFeedForward)
{
    expectGolden("LunarLander_v2", true, kHwLunarLanderFeedForward,
                 nn::NumericsTier::HwFaithful);
}

// A run that drops SystemConfig::numericsTier on its way to the
// engine scores the hw cases in the reference tier and lands on the
// reference constants. CartPole cannot catch that (its constants
// coincide, above); these configurations can, as long as their
// constants stay distinct.
TEST(GoldenDigestTest, HwTierMovesDigests)
{
    EXPECT_NE(kHwAtariRamFeedForward, kAtariRamFeedForward);
    EXPECT_NE(kHwAtariRamRecurrent, kAtariRamRecurrent);
    EXPECT_NE(kHwLunarLanderFeedForward, kLunarLanderFeedForward);
}

TEST(GoldenDigestTest, ResumedHwCartPoleFeedForward)
{
    expectGoldenResumed("CartPole_v0", true, 2, 0x91ab83f9a21094c8ull,
                        nn::NumericsTier::HwFaithful);
}

TEST(GoldenDigestTest, ResumedHwCartPoleRecurrent)
{
    expectGoldenResumed("CartPole_v0", false, 2, 0x13c74606f16213fbull,
                        nn::NumericsTier::HwFaithful);
}

TEST(GoldenDigestTest, ResumedHwAtariRamFeedForward)
{
    expectGoldenResumed("AirRaid-ram-v0", true, 3, kHwAtariRamFeedForward,
                        nn::NumericsTier::HwFaithful);
}

TEST(GoldenDigestTest, ResumedHwAtariRamRecurrent)
{
    expectGoldenResumed("AirRaid-ram-v0", false, 3, kHwAtariRamRecurrent,
                        nn::NumericsTier::HwFaithful);
}
