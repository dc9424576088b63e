/**
 * @file
 * Tests for the CPPN / HyperNEAT-style indirect encoding (the more
 * efficient genome representation Section III-D1 points at).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "env/eval_fixtures.hh"
#include "nn/cppn.hh"
#include "nn/feedforward.hh"

using namespace genesys;
using namespace genesys::nn;

namespace
{

SubstrateConfig
bigSubstrate()
{
    SubstrateConfig sub;
    sub.inputs = 16;
    sub.outputs = 4;
    sub.hiddenLayers = {12, 12};
    return sub;
}

neat::Genome
randomCppn(uint64_t seed, int mutations = 8)
{
    return oracle::grownGenome(cppnNeatConfig(), mutations, seed);
}

} // namespace

TEST(SubstrateConfigTest, CountsNodesAndConnections)
{
    const auto sub = bigSubstrate();
    EXPECT_EQ(sub.phenotypeNodes(), 4 + 12 + 12);
    EXPECT_EQ(sub.densePotentialConnections(),
              16 * 12 + 12 * 12 + 12 * 4);
}

TEST(SubstrateLayoutTest, CoordinatesInUnitSquare)
{
    const auto layout = substrateLayout(bigSubstrate());
    ASSERT_EQ(layout.layers.size(), 4u); // in, h1, h2, out
    for (const auto &sheet : layout.layers) {
        for (const auto &[x, y] : sheet) {
            EXPECT_GE(x, -1.0);
            EXPECT_LE(x, 1.0);
            EXPECT_GE(y, -1.0);
            EXPECT_LE(y, 1.0);
        }
    }
    // Input sheet at the bottom, outputs at the top.
    EXPECT_DOUBLE_EQ(layout.layers.front().front().second, -1.0);
    EXPECT_DOUBLE_EQ(layout.layers.back().front().second, 1.0);
}

TEST(CppnConfigTest, ValidAndGeometryFriendly)
{
    const auto cfg = cppnNeatConfig();
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_EQ(cfg.numInputs, 4);
    EXPECT_EQ(cfg.numOutputs, 1);
    EXPECT_GE(cfg.activation.options.size(), 4u);
}

TEST(ExpandCppn, ProducesValidPhenotype)
{
    const auto cfg = cppnNeatConfig();
    const auto sub = bigSubstrate();
    for (uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
        const auto cppn = randomCppn(seed);
        const auto phenotype = expandCppn(cppn, cfg, sub);
        neat::NeatConfig pheno_cfg;
        pheno_cfg.numInputs = sub.inputs;
        pheno_cfg.numOutputs = sub.outputs;
        phenotype.validate(pheno_cfg);
        EXPECT_EQ(phenotype.numNodeGenes(),
                  static_cast<size_t>(sub.phenotypeNodes()));
    }
}

TEST(ExpandCppn, PhenotypeIsEvaluable)
{
    const auto cfg = cppnNeatConfig();
    const auto sub = bigSubstrate();
    const auto phenotype = expandCppn(randomCppn(5), cfg, sub);
    neat::NeatConfig pheno_cfg;
    pheno_cfg.numInputs = sub.inputs;
    pheno_cfg.numOutputs = sub.outputs;
    const auto net = FeedForwardNetwork::create(phenotype, pheno_cfg);
    const auto out =
        net.activate(std::vector<double>(16, 0.5));
    ASSERT_EQ(out.size(), 4u);
    for (double v : out)
        EXPECT_TRUE(std::isfinite(v));
}

TEST(ExpandCppn, ThresholdPrunesConnections)
{
    const auto cfg = cppnNeatConfig();
    auto sub = bigSubstrate();
    const auto cppn = randomCppn(6);

    sub.weightThreshold = 0.05;
    const auto loose = expandCppn(cppn, cfg, sub);
    sub.weightThreshold = 0.8;
    const auto tight = expandCppn(cppn, cfg, sub);
    EXPECT_LE(tight.numConnectionGenes(), loose.numConnectionGenes());
    // Everything expressed is within the dense bound.
    EXPECT_LE(loose.numConnectionGenes(),
              static_cast<size_t>(sub.densePotentialConnections()));
}

TEST(ExpandCppn, WeightsBoundedByScale)
{
    const auto cfg = cppnNeatConfig();
    auto sub = bigSubstrate();
    sub.weightScale = 3.0;
    const auto phenotype = expandCppn(randomCppn(7), cfg, sub);
    for (const auto &[ck, cg] : phenotype.connections()) {
        EXPECT_LE(std::fabs(cg.weight), 3.0 + 1e-12);
        EXPECT_GT(std::fabs(cg.weight), 0.0);
    }
}

TEST(ExpandCppn, DeterministicForSameCppn)
{
    const auto cfg = cppnNeatConfig();
    const auto sub = bigSubstrate();
    const auto cppn = randomCppn(8);
    const auto a = expandCppn(cppn, cfg, sub);
    const auto b = expandCppn(cppn, cfg, sub);
    ASSERT_EQ(a.numConnectionGenes(), b.numConnectionGenes());
    for (const auto &[ck, cg] : a.connections())
        EXPECT_DOUBLE_EQ(b.connections().at(ck).weight, cg.weight);
}

TEST(ExpandCppn, IndirectEncodingShrinksStoredGenome)
{
    // The Section III-D1 motivation: the CPPN's Genome Buffer image
    // is far smaller than the phenotype it generates once substrates
    // get large.
    const auto cfg = cppnNeatConfig();
    SubstrateConfig sub;
    sub.inputs = 128; // an Atari-RAM-sized policy
    sub.outputs = 18;
    sub.hiddenLayers = {64};
    sub.weightThreshold = 0.1;
    const auto cppn = randomCppn(9);
    const auto phenotype = expandCppn(cppn, cfg, sub);

    const long stored = cppnStoredBytes(cppn);
    const long direct = phenotypeStoredBytes(phenotype);
    EXPECT_GT(direct, 4 * stored)
        << "CPPN " << stored << " B vs direct " << direct << " B";
}
