/**
 * @file
 * Golden determinism lock: fixed-seed multi-generation runs hashed
 * down to one 64-bit digest per configuration, compared against
 * committed constants. Every prior bit-identity suite compares two
 * live paths against each other (serial vs batched, 1 vs 8 threads);
 * this one pins the absolute bit pattern, so a change that breaks all
 * paths in the *same* way — a reordered accumulation in the episode
 * loop, a perturbed seed derivation, an altered hardware-model
 * constant — still fails ctest without needing a pre-change binary to
 * diff against.
 *
 * The digests fold in the RunSummary totals and every generation
 * report's algorithm, workload and hardware-cycle fields (the same
 * fields the differential suites compare), over 6 generations of
 * CartPole and Atari-RAM populations, feed-forward and recurrent.
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
 * GENESYS_NUMERICS, by contrast, IS pinned per test: the numerics
 * tiers are intentionally different lowerings with different bit
 * patterns, so each configuration carries one constant per tier
 * (Reference and HwFaithful) and selects its tier explicitly — a CI
 * job exporting GENESYS_NUMERICS=hw suite-wide must not silently
 * retarget the reference constants. The Hw* tests make the same
 * cross-thread/cross-mode/cross-resume identity statement for the
 * quantized tier that the originals make for the float tier.
 *
 * The Resumed* variants run the same configurations interrupted at a
 * mid-run generation barrier — checkpoint, destroy the System, resume
 * in a fresh one — and must land on the SAME constants: the
 * persist:: save/load boundary is invisible to every digested bit.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "core/genesys.hh"
#include "nn/numerics.hh"
#include "persist/snapshot.hh"

using namespace genesys;

namespace
{

/** FNV-1a 64-bit accumulation over one 64-bit word. */
void
fold(uint64_t &h, uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ull;
    }
}

void
fold(uint64_t &h, double v)
{
    fold(h, std::bit_cast<uint64_t>(v));
}

/**
 * Pin GENESYS_NUMERICS for the lifetime of one digest run, restoring
 * the previous state after. Pinning through the env hook (rather than
 * only SystemConfig) both isolates the constants from an ambient CI
 * override and keeps the hook itself on the golden path.
 */
class ScopedNumericsEnv
{
  public:
    explicit ScopedNumericsEnv(nn::NumericsTier tier)
    {
        const char *prev = std::getenv("GENESYS_NUMERICS");
        had_ = prev != nullptr;
        if (had_)
            prev_ = prev;
        setenv("GENESYS_NUMERICS", nn::numericsTierName(tier).c_str(),
               1);
    }
    ~ScopedNumericsEnv()
    {
        if (had_)
            setenv("GENESYS_NUMERICS", prev_.c_str(), 1);
        else
            unsetenv("GENESYS_NUMERICS");
    }

  private:
    bool had_ = false;
    std::string prev_;
};

/** The fixed configuration every golden run uses. */
core::SystemConfig
goldenConfig(const std::string &envName, bool feed_forward, int threads,
             bool batchEpisodes = true, bool heterogeneousLanes = true)
{
    core::SystemConfig cfg;
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

/** Digest a run's summary + per-generation reports. */
uint64_t
digestFields(const core::RunSummary &s,
             const std::vector<core::GenerationReport> &reports)
{
    uint64_t h = 0xcbf29ce484222325ull; // FNV offset basis
    fold(h, static_cast<uint64_t>(s.solved));
    fold(h, static_cast<uint64_t>(s.generations));
    fold(h, s.bestFitness);
    fold(h, s.totalEvolutionEnergyJ);
    fold(h, s.totalInferenceEnergyJ);
    fold(h, s.totalEvolutionSeconds);
    fold(h, s.totalInferenceSeconds);
    for (const core::GenerationReport &r : reports) {
        fold(h, r.algo.bestFitness);
        fold(h, r.algo.meanFitness);
        fold(h, static_cast<uint64_t>(r.algo.evolutionOps));
        fold(h, static_cast<uint64_t>(r.inferenceSteps));
        fold(h, static_cast<uint64_t>(r.maxEpisodeSteps));
        fold(h, r.macsPerStep);
        fold(h, r.compactCellsPerGenome);
        fold(h, r.sparseCellsPerGenome);
        fold(h, static_cast<uint64_t>(r.hw.eve.cycles));
        fold(h, static_cast<uint64_t>(r.hw.adam.cycles));
        fold(h, r.hw.evolutionEnergyJ);
        fold(h, r.hw.inferenceEnergyJ);
    }
    return h;
}

/** Run a fixed 6-generation system and digest its observable state. */
uint64_t
digestRun(const std::string &envName, bool feed_forward, int threads,
          nn::NumericsTier tier, bool batchEpisodes = true,
          bool heterogeneousLanes = true)
{
    ScopedNumericsEnv pin(tier);
    core::System sys(goldenConfig(envName, feed_forward, threads,
                                  batchEpisodes, heterogeneousLanes));
    const core::RunSummary s = sys.run();
    return digestFields(s, sys.reports());
}

/**
 * The same 6-generation run, interrupted at the `split` generation
 * barrier: the first System checkpoints and is destroyed, a second
 * one resumes from the snapshot file and runs the remaining horizon.
 * Digests the exact fields digestRun does, so the committed constants
 * double as the resumed-run oracle — the strongest statement that
 * save/load crosses the boundary bit-identically.
 */
uint64_t
digestResumedRun(const std::string &envName, bool feed_forward,
                 int threads, int split, nn::NumericsTier tier)
{
    ScopedNumericsEnv pin(tier);
    namespace fs = std::filesystem;
    std::ostringstream dn;
    // PID-qualified so two suite processes on one machine (e.g. two
    // build trees' ctest runs) never share a checkpoint directory;
    // tier-qualified so the Reference and HwFaithful variants of one
    // configuration never share one either.
    dn << "genesys-golden-ckpt-" << envName
       << (feed_forward ? "-ff-" : "-rec-") << threads << '-'
       << nn::numericsTierName(tier) << '-' << ::getpid();
    const fs::path dir = fs::temp_directory_path() / dn.str();
    fs::remove_all(dir);

    core::SystemConfig cfg = goldenConfig(envName, feed_forward, threads);
    cfg.checkpointDir = dir.string();

    std::vector<core::GenerationReport> reports;
    bool solved = false;
    double best_fitness = 0.0;
    {
        core::System a(cfg);
        for (int g = 0; g < split && !solved; ++g)
            solved = a.stepGeneration();
        reports = a.reports();
        if (solved && a.population().hasBest())
            best_fitness = a.population().bestGenome().fitness();
    } // first "process" dies here

    EXPECT_FALSE(solved)
        << envName << " solved before the split generation " << split
        << "; the save/load boundary was not exercised — lower split";
    if (!solved) {
        const std::string snap =
            (dir / persist::snapshotFileName(split)).string();
        EXPECT_TRUE(fs::exists(snap)) << "missing checkpoint " << snap;
        core::SystemConfig rest = cfg;
        rest.checkpointDir.clear();
        rest.maxGenerations = 6 - split; // the remaining horizon
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
    core::RunSummary s;
    s.solved = solved;
    s.generations = static_cast<int>(reports.size());
    s.bestFitness = best_fitness;
    for (const core::GenerationReport &r : reports) {
        s.totalEvolutionEnergyJ += r.hw.evolutionEnergyJ;
        s.totalInferenceEnergyJ += r.hw.inferenceEnergyJ;
        s.totalEvolutionSeconds += r.hw.evolutionSeconds;
        s.totalInferenceSeconds += r.hw.inferenceSeconds();
    }
    return digestFields(s, reports);
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
    expectGolden("AirRaid-ram-v0", true, 0x0c2b83e79f4d6cd4ull);
}

TEST(GoldenDigestTest, AtariRamRecurrent)
{
    expectGolden("AirRaid-ram-v0", false, 0x8cd2f0b7e7b2976aull);
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
    expectGoldenResumed("AirRaid-ram-v0", true, 3,
                        0x0c2b83e79f4d6cd4ull);
}

TEST(GoldenDigestTest, ResumedAtariRamRecurrent)
{
    expectGoldenResumed("AirRaid-ram-v0", false, 3,
                        0x8cd2f0b7e7b2976aull);
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
    expectGolden("AirRaid-ram-v0", true, 0x6f0429717d4d0369ull,
                 nn::NumericsTier::HwFaithful);
}

TEST(GoldenDigestTest, HwAtariRamRecurrent)
{
    expectGolden("AirRaid-ram-v0", false, 0x4809cadcf81e17abull,
                 nn::NumericsTier::HwFaithful);
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
    expectGoldenResumed("AirRaid-ram-v0", true, 3, 0x6f0429717d4d0369ull,
                        nn::NumericsTier::HwFaithful);
}

TEST(GoldenDigestTest, ResumedHwAtariRamRecurrent)
{
    expectGoldenResumed("AirRaid-ram-v0", false, 3, 0x4809cadcf81e17abull,
                        nn::NumericsTier::HwFaithful);
}
