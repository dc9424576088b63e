/**
 * @file
 * Tests for NeatConfig validation and the MutationCounts arithmetic.
 */

#include <gtest/gtest.h>

#include "neat/genome.hh"

using namespace genesys::neat;

namespace
{

NeatConfig
valid()
{
    NeatConfig cfg;
    cfg.numInputs = 2;
    cfg.numOutputs = 1;
    return cfg;
}

} // namespace

TEST(NeatConfigTest, DefaultIsValid)
{
    EXPECT_NO_THROW(valid().validate());
}

TEST(NeatConfigTest, RejectsTinyPopulation)
{
    auto cfg = valid();
    cfg.populationSize = 1;
    EXPECT_ANY_THROW(cfg.validate());
}

TEST(NeatConfigTest, RejectsZeroInputsOrOutputs)
{
    auto cfg = valid();
    cfg.numInputs = 0;
    EXPECT_ANY_THROW(cfg.validate());
    cfg = valid();
    cfg.numOutputs = 0;
    EXPECT_ANY_THROW(cfg.validate());
}

TEST(NeatConfigTest, RejectsBadProbabilities)
{
    auto cfg = valid();
    cfg.connAddProb = 1.5;
    EXPECT_ANY_THROW(cfg.validate());
    cfg = valid();
    cfg.nodeDeleteProb = -0.1;
    EXPECT_ANY_THROW(cfg.validate());
}

TEST(NeatConfigTest, RejectsBadSurvivalThreshold)
{
    auto cfg = valid();
    cfg.survivalThreshold = 0.0;
    EXPECT_ANY_THROW(cfg.validate());
    cfg.survivalThreshold = 1.5;
    EXPECT_ANY_THROW(cfg.validate());
}

TEST(NeatConfigTest, RejectsElitismBeyondPopulation)
{
    auto cfg = valid();
    cfg.populationSize = 10;
    cfg.elitism = 10;
    EXPECT_ANY_THROW(cfg.validate());
    cfg.elitism = -1;
    EXPECT_ANY_THROW(cfg.validate());
}

TEST(NeatConfigTest, RejectsEmptyAttributeOptions)
{
    auto cfg = valid();
    cfg.activation.options.clear();
    EXPECT_ANY_THROW(cfg.validate());
    cfg = valid();
    cfg.aggregation.options.clear();
    EXPECT_ANY_THROW(cfg.validate());
}

TEST(NeatConfigTest, RejectsNonPositiveCompatThreshold)
{
    auto cfg = valid();
    cfg.compatibilityThreshold = 0.0;
    EXPECT_ANY_THROW(cfg.validate());
}

TEST(MutationCountsTest, TotalAndAccumulate)
{
    MutationCounts a;
    a.crossoverOps = 1;
    a.cloneOps = 2;
    a.perturbOps = 3;
    a.addOps = 4;
    a.deleteOps = 5;
    EXPECT_EQ(a.total(), 15);

    MutationCounts b;
    b.perturbOps = 10;
    b += a;
    EXPECT_EQ(b.perturbOps, 13);
    EXPECT_EQ(b.total(), 25);
}
