/**
 * @file
 * Integration tests: the full GeneSys closed loop (System), the SoC
 * generation simulator, and the end-to-end hardware functional path
 * (encode -> split -> PE -> merge -> decode).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/experiment.hh"
#include "env/expect_eval.hh"
#include "hw/eve_pe.hh"
#include "hw/gene_merge.hh"
#include "obs/metrics.hh"
#include "persist/snapshot.hh"

using namespace genesys;
using namespace genesys::core;

TEST(SystemTest, CartPoleSolves)
{
    SystemConfig cfg;
    cfg.envName = "CartPole_v0";
    cfg.maxGenerations = 40;
    cfg.seed = 7;
    System sys(cfg);
    const auto summary = sys.run();
    EXPECT_TRUE(summary.solved);
    EXPECT_GE(summary.bestFitness,
              sys.environment().targetFitness());
    EXPECT_GT(summary.totalInferenceEnergyJ, 0.0);
}

TEST(SystemTest, DeterministicAcrossRuns)
{
    SystemConfig cfg;
    cfg.envName = "MountainCar_v0";
    cfg.maxGenerations = 5;
    cfg.seed = 11;
    System a(cfg), b(cfg);
    a.run();
    b.run();
    ASSERT_EQ(a.reports().size(), b.reports().size());
    for (size_t i = 0; i < a.reports().size(); ++i) {
        EXPECT_DOUBLE_EQ(a.reports()[i].algo.bestFitness,
                         b.reports()[i].algo.bestFitness);
        EXPECT_EQ(a.reports()[i].algo.totalGenes,
                  b.reports()[i].algo.totalGenes);
        EXPECT_EQ(a.reports()[i].hw.eve.cycles,
                  b.reports()[i].hw.eve.cycles);
    }
}

TEST(SystemTest, ReportsCarryHardwareAndWorkloadStats)
{
    SystemConfig cfg;
    cfg.envName = "MountainCar_v0";
    cfg.maxGenerations = 3;
    cfg.seed = 3;
    System sys(cfg);
    sys.run();
    ASSERT_GE(sys.reports().size(), 1u);
    for (const auto &r : sys.reports()) {
        EXPECT_GT(r.inferenceSteps, 0);
        EXPECT_GT(r.macsPerStep, 0.0);
        EXPECT_GT(r.compactCellsPerGenome, 0.0);
        EXPECT_GE(r.sparseCellsPerGenome, r.compactCellsPerGenome);
        EXPECT_GT(r.hw.adam.cycles, 0);
        EXPECT_GT(r.hw.inferenceEnergyJ, 0.0);
    }
}

TEST(SystemTest, HardwareSimulationOptional)
{
    SystemConfig cfg;
    cfg.envName = "MountainCar_v0";
    cfg.maxGenerations = 2;
    cfg.seed = 5;
    cfg.simulateHardware = false;
    System sys(cfg);
    sys.run();
    for (const auto &r : sys.reports()) {
        EXPECT_EQ(r.hw.adam.cycles, 0);
        EXPECT_DOUBLE_EQ(r.hw.inferenceEnergyJ, 0.0);
    }
}

TEST(SystemTest, GenesysTransferShareIsSmall)
{
    // Fig 10(c): GENESYS spends ~15% of inference time moving data.
    SystemConfig cfg;
    cfg.envName = "Alien-ram-v0";
    cfg.maxGenerations = 2;
    cfg.seed = 2;
    System sys(cfg);
    sys.run();
    for (const auto &r : sys.reports()) {
        EXPECT_GT(r.hw.transferFraction(), 0.0);
        // ~15% typical; generations whose episodes die early pay a
        // relatively larger one-time weight-streaming share.
        EXPECT_LT(r.hw.transferFraction(), 0.45);
    }
}

TEST(SystemTest, TweakNeatHookApplies)
{
    SystemConfig cfg;
    cfg.envName = "CartPole_v0";
    cfg.maxGenerations = 1;
    cfg.seed = 4;
    cfg.tweakNeat = [](neat::NeatConfig &n) { n.populationSize = 42; };
    System sys(cfg);
    EXPECT_EQ(sys.population().genomes().size(), 42u);
}

TEST(SystemTest, StartupAndResumePhasesAreMeasuredAndPublished)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "genesys-test-startup-phases";
    fs::remove_all(dir);
    obs::MetricsRegistry reg;
    obs::MetricsRegistry::install(&reg);

    SystemConfig cfg;
    cfg.envName = "CartPole_v0";
    cfg.maxGenerations = 2;
    cfg.episodesPerEval = 1;
    cfg.seed = 17;
    cfg.numThreads = 2;
    cfg.checkpointDir = dir.string();
    cfg.tweakNeat = [](neat::NeatConfig &n) {
        n.populationSize = 30;
        n.fitnessThreshold = 1e18;
    };
    {
        System sys(cfg);
        const StartupPhases &p = sys.startupPhases();
        EXPECT_GT(p.populationSeconds, 0.0);
        EXPECT_GT(p.speciateSeconds, 0.0);
        EXPECT_GT(p.engineSeconds, 0.0);
        EXPECT_LE(p.populationSeconds + p.speciateSeconds +
                      p.engineSeconds,
                  p.wallSeconds);
        EXPECT_EQ(reg.gauge("startup.population_seconds").value(),
                  p.populationSeconds);
        EXPECT_EQ(reg.gauge("startup.wall_seconds").value(),
                  p.wallSeconds);
        EXPECT_EQ(sys.lastResumePhases().wallSeconds, 0.0);
        sys.run();
    }

    cfg.checkpointDir.clear();
    System resumed(cfg);
    resumed.resumeFrom((dir / persist::snapshotFileName(2)).string());
    const ResumePhases &r = resumed.lastResumePhases();
    EXPECT_GT(r.readSeconds, 0.0);
    EXPECT_GT(r.validateSeconds, 0.0);
    EXPECT_GT(r.restoreSeconds, 0.0);
    EXPECT_LE(r.readSeconds + r.validateSeconds + r.restoreSeconds,
              r.wallSeconds);
    EXPECT_EQ(reg.gauge("resume.read_seconds").value(), r.readSeconds);
    EXPECT_EQ(reg.gauge("resume.wall_seconds").value(), r.wallSeconds);

    obs::MetricsRegistry::install(nullptr);
    fs::remove_all(dir);
}

TEST(SystemTest, ReplayBestMatchesSerialOracle)
{
    // replayBest runs the champion on the wave loop's one lane. It
    // must equal the oracle's serial loop over the same genome,
    // compiled under the run's config and tier — for recurrent runs
    // too, whose state the replay must reset at episode start.
    for (const bool feed_forward : {true, false}) {
        for (const nn::NumericsTier tier :
             {nn::NumericsTier::Reference, nn::NumericsTier::HwFaithful}) {
            SCOPED_TRACE(std::string(feed_forward ? "ff " : "rec ") +
                         nn::numericsTierName(tier));
            SystemConfig cfg;
            cfg.envName = "CartPole_v0";
            cfg.maxGenerations = 3;
            cfg.seed = 21;
            cfg.numericsTier = tier;
            cfg.simulateHardware = false;
            cfg.tweakNeat = [feed_forward](neat::NeatConfig &n) {
                n.populationSize = 40;
                n.feedForward = feed_forward;
            };
            System sys(cfg);
            sys.run();
            ASSERT_EQ(sys.numericsTier(), tier);

            const auto plan = nn::CompiledPlan::compileFor(
                sys.population().bestGenome(), sys.neatConfig(), tier);
            ASSERT_EQ(plan.isRecurrent(), !feed_forward);
            auto serial_env = env::makeEnvironment(cfg.envName);
            // One scratch across seeds: the oracle resets it per
            // episode, so a replay that leaked state would diverge.
            nn::PlanScratch scratch;
            for (const uint64_t seed : {5ULL, 1234ULL, 5ULL}) {
                SCOPED_TRACE("seed " + std::to_string(seed));
                oracle::expectEpisodeIdentical(
                    sys.replayBest(seed),
                    oracle::runEpisode(*serial_env, plan, scratch, seed));
            }
        }
    }
}

TEST(ExperimentTest, RunWorkloadBuildsSeries)
{
    auto spec = workload("MountainCar_v0");
    spec.maxGenerations = 4;
    const auto run = runWorkload(spec, 9, true);
    EXPECT_EQ(run.fitnessSeries.size(), run.reports.size());
    EXPECT_EQ(run.geneSeries.size(), run.reports.size());
    for (double f : run.fitnessSeries) {
        EXPECT_GE(f, 0.0);
        EXPECT_LE(f, 1.2);
    }
    for (double g : run.geneSeries)
        EXPECT_GT(g, 0.0);
}

TEST(ExperimentTest, ProfileFromRunIsPopulated)
{
    auto spec = workload("MountainCar_v0");
    spec.maxGenerations = 4;
    const auto run = runWorkload(spec, 10, true);
    const auto p = profileFromRun(run);
    EXPECT_EQ(p.envName, "MountainCar_v0");
    EXPECT_GT(p.evolutionOps, 0);
    EXPECT_GT(p.inferenceSteps, 0);
    EXPECT_GT(p.macsPerStep, 0.0);
    EXPECT_GT(p.totalGenes, 0);
    EXPECT_EQ(p.obsBytes, 8);
}

TEST(ExperimentTest, RunSeedsProducesDistinctRuns)
{
    auto spec = workload("MountainCar_v0");
    spec.maxGenerations = 3;
    const auto runs = runSeeds(spec, 1, 3, false);
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_NE(runs[0].geneSeries.back(), runs[1].geneSeries.back());
}

TEST(WorkloadsTest, SuitesWellFormed)
{
    EXPECT_EQ(evaluationSuite().size(), 6u);
    EXPECT_EQ(characterizationSuite().size(), 9u);
    for (const auto &w : characterizationSuite()) {
        const auto cfg = neatConfigFor(w);
        cfg.validate();
        EXPECT_EQ(cfg.populationSize, 150);
    }
    EXPECT_ANY_THROW(workload("DoesNotExist"));
}

/**
 * End-to-end hardware functional path: a software-bred generation's
 * parents pushed through the real EvE pipeline produce valid child
 * genomes, across seeds.
 */
class HwFunctional : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(HwFunctional, EvePipelineProducesValidChildren)
{
    neat::NeatConfig cfg;
    cfg.numInputs = 4;
    cfg.numOutputs = 2;
    cfg.nodeAddProb = 0.3;
    cfg.connAddProb = 0.4;
    cfg.connDeleteProb = 0.2;
    cfg.nodeDeleteProb = 0.1;
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(GetParam());

    auto p1 = neat::Genome::createNew(0, cfg, idx, rng);
    auto p2 = neat::Genome::createNew(1, cfg, idx, rng);
    for (int i = 0; i < 15; ++i) {
        p1.mutate(cfg, idx, rng);
        p2.mutate(cfg, idx, rng);
    }

    hw::GeneCodec codec;
    const auto s1 = codec.encodeGenome(p1, cfg);
    const auto s2 = codec.encodeGenome(p2, cfg);
    const auto stream = hw::alignStreams(s1, s2, codec);

    hw::EvePe pe(codec, hw::peConfigFrom(cfg, stream.size()),
                 GetParam() ^ 0x5555);
    const auto res = pe.processChild(stream);
    const auto merged = hw::mergeChild(res.childGenes, codec);
    auto child = codec.decodeGenome(merged.genome, 99);

    // The child must be a structurally valid genome; the hardware
    // pipeline never silently makes the feed-forward graph cyclic
    // either, because added connections reuse observed (src, dst)
    // orderings. Check everything but cycles via validate on a
    // recurrent-permissive config, then spot-check outputs exist.
    auto relaxed = cfg;
    relaxed.feedForward = false; // HW may add skip edges; see docs
    child.validate(relaxed);
    EXPECT_TRUE(child.nodes().count(0));
    EXPECT_TRUE(child.nodes().count(1));
    EXPECT_GT(child.numConnectionGenes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HwFunctional,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));
