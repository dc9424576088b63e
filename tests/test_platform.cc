/**
 * @file
 * Tests for the baseline platform models (Table III) and the DQN cost
 * model (Table II): the published relative behaviours must hold.
 */

#include <gtest/gtest.h>

#include "platform/dqn_model.hh"
#include "platform/platform_model.hh"

using namespace genesys::platform;

namespace
{

/** A CartPole-flavoured workload profile. */
WorkloadProfile
smallProfile()
{
    WorkloadProfile w;
    w.envName = "CartPole_v0";
    w.population = 150;
    w.evolutionOps = 3000;
    w.inferenceSteps = 3000;
    w.batchedSteps = 60;
    w.macsPerStep = 8.0;
    w.compactCellsPerGenome = 20;
    w.sparseCellsPerGenome = 400;
    w.totalGenes = 900;
    w.obsBytes = 16;
    w.actBytes = 4;
    return w;
}

/** An Atari-RAM-flavoured workload profile. */
WorkloadProfile
atariProfile()
{
    WorkloadProfile w;
    w.envName = "Alien-ram-v0";
    w.population = 150;
    w.evolutionOps = 600000;
    w.inferenceSteps = 700;
    w.batchedSteps = 300;
    w.macsPerStep = 2300.0;
    w.compactCellsPerGenome = 2400;
    w.sparseCellsPerGenome = 25000;
    w.totalGenes = 350000;
    w.obsBytes = 512;
    w.actBytes = 72;
    return w;
}

} // namespace

TEST(TableIII, AllPlatformsEnumerated)
{
    EXPECT_EQ(allPlatforms().size(), 8u);
    EXPECT_EQ(platformName(PlatformId::CPU_a), "CPU_a");
    EXPECT_EQ(platformName(PlatformId::GPU_d), "GPU_d");
    EXPECT_EQ(platformDevice(PlatformId::CPU_a), "6th gen i7");
    EXPECT_EQ(platformDevice(PlatformId::GPU_c), "Nvidia Tegra");
    EXPECT_EQ(platformInferenceStrategy(PlatformId::GPU_b), "BSP + PLP");
    EXPECT_EQ(platformEvolutionStrategy(PlatformId::CPU_a), "Serial");
}

TEST(PlatformModelTest, ParallelCpuInferenceIs3p5xFaster)
{
    // Section VI-B: "Parallel inference on CPU is 3.5 times faster
    // than the serial counterpart."
    const auto w = smallProfile();
    const double serial =
        PlatformModel(PlatformId::CPU_a).inferenceSeconds(w);
    const double plp =
        PlatformModel(PlatformId::CPU_b).inferenceSeconds(w);
    EXPECT_NEAR(serial / plp, 3.5, 0.01);
}

TEST(PlatformModelTest, EmbeddedSlowerThanDesktop)
{
    const auto w = smallProfile();
    EXPECT_GT(PlatformModel(PlatformId::CPU_c).inferenceSeconds(w),
              PlatformModel(PlatformId::CPU_a).inferenceSeconds(w));
    EXPECT_GT(PlatformModel(PlatformId::CPU_c).evolutionSeconds(w),
              PlatformModel(PlatformId::CPU_a).evolutionSeconds(w));
}

TEST(PlatformModelTest, GpuAMemcpyDominates)
{
    // Fig 10(a): "memory transfers take 70% of runtime in GPU_a".
    for (const auto &w : {smallProfile(), atariProfile()}) {
        const auto b =
            PlatformModel(PlatformId::GPU_a).inferenceBreakdown(w);
        EXPECT_GT(b.transferFraction(), 0.55) << w.envName;
        EXPECT_LT(b.transferFraction(), 0.9) << w.envName;
    }
}

TEST(PlatformModelTest, GpuBTransfersAreSmallerShare)
{
    // Fig 10(b): GPU_b drops to ~20% of runtime in transfers.
    const auto w = atariProfile();
    const auto a = PlatformModel(PlatformId::GPU_a).inferenceBreakdown(w);
    const auto b = PlatformModel(PlatformId::GPU_b).inferenceBreakdown(w);
    EXPECT_LT(b.transferFraction(), a.transferFraction());
    EXPECT_LT(b.transferFraction(), 0.45);
}

TEST(PlatformModelTest, BreakdownSumsToInferenceTime)
{
    const auto w = atariProfile();
    for (auto id : {PlatformId::GPU_a, PlatformId::GPU_b,
                    PlatformId::GPU_c, PlatformId::GPU_d}) {
        PlatformModel m(id);
        EXPECT_NEAR(m.inferenceBreakdown(w).totalSeconds(),
                    m.inferenceSeconds(w), 1e-12);
    }
}

TEST(PlatformModelTest, CpuBreakdownThrows)
{
    EXPECT_ANY_THROW(PlatformModel(PlatformId::CPU_a)
                         .inferenceBreakdown(smallProfile()));
}

TEST(PlatformModelTest, EnergyIsTimeTimesPower)
{
    const auto w = smallProfile();
    for (auto id : allPlatforms()) {
        PlatformModel m(id);
        EXPECT_NEAR(m.inferenceEnergyJ(w),
                    m.inferenceSeconds(w) * m.activePowerW(), 1e-12);
        EXPECT_NEAR(m.evolutionEnergyJ(w),
                    m.evolutionSeconds(w) * m.activePowerW(), 1e-12);
    }
}

TEST(PlatformModelTest, FootprintOrdering)
{
    // Fig 10(d): GPU_a (one compacted genome) << GENESYS (all
    // genomes) << GPU_b (padded sparse tensors for the population).
    const auto w = atariProfile();
    const long gpu_a =
        PlatformModel(PlatformId::GPU_a).footprintBytes(w);
    const long gpu_b =
        PlatformModel(PlatformId::GPU_b).footprintBytes(w);
    const long genesys = w.totalGenes * 8;
    EXPECT_GT(genesys, 50 * gpu_a);
    EXPECT_GT(gpu_b, 3 * genesys);
}

TEST(PlatformModelTest, EvolutionOpsDriveCpuRuntime)
{
    auto w = smallProfile();
    PlatformModel cpu(PlatformId::CPU_a);
    const double t1 = cpu.evolutionSeconds(w);
    w.evolutionOps *= 10;
    const double t10 = cpu.evolutionSeconds(w);
    EXPECT_GT(t10, 5.0 * t1);
}

TEST(PlatformModelTest, AtariCostsMoreThanCartPole)
{
    for (auto id : allPlatforms()) {
        PlatformModel m(id);
        EXPECT_GT(m.evolutionSeconds(atariProfile()),
                  m.evolutionSeconds(smallProfile()));
    }
}

// --- Table II (DQN vs EA) ---------------------------------------------------

TEST(DqnModel, ForwardMacsMatchTopology)
{
    DqnConfig cfg;
    cfg.layers = {10, 20, 5};
    cfg.replayEntries = 2;
    cfg.stateBytes = 100;
    const auto c = dqnCosts(cfg);
    EXPECT_EQ(c.forwardMacs, 10 * 20 + 20 * 5);
    EXPECT_EQ(c.paramBytes, (10 * 20 + 20 + 20 * 5 + 5) * 4);
    EXPECT_EQ(c.replayBytes, 2 * (200 + 4 + 4 + 1));
}

TEST(DqnModel, DefaultMatchesPaperOrderOfMagnitude)
{
    // Table II: ~3M MACs forward, ~50 MB replay for 100 entries.
    const auto c = dqnCosts();
    EXPECT_GT(c.forwardMacs, 2000000);
    EXPECT_LT(c.forwardMacs, 4000000);
    EXPECT_GT(c.replayBytes, 20L * 1024 * 1024);
    EXPECT_LT(c.replayBytes, 80L * 1024 * 1024);
    EXPECT_GT(c.bpGradients, 100000);
    EXPECT_LT(c.bpGradients, c.forwardMacs);
}

TEST(DqnModel, EaComparisonHoldsAsInTableII)
{
    // The EA side: an Atari-RAM genome of ~770 genes does ~770 MACs
    // per inference and the whole generation fits in well under 1 MB
    // - orders of magnitude below DQN on both axes.
    const auto dqn = dqnCosts();
    const long ea_macs_per_inference = 770;
    const long ea_generation_bytes = 150 * 770 * 8;
    EXPECT_GT(dqn.forwardMacs / ea_macs_per_inference, 1000);
    EXPECT_GT(dqn.replayBytes / ea_generation_bytes, 10);
}
