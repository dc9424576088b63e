/**
 * @file
 * Tests for activation and aggregation functions.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.hh"
#include "neat/activations.hh"
#include "neat/aggregations.hh"

using namespace genesys::neat;

TEST(Activations, SigmoidRangeAndMidpoint)
{
    EXPECT_NEAR(activate(Activation::Sigmoid, 0.0), 0.5, 1e-12);
    EXPECT_GT(activate(Activation::Sigmoid, 10.0), 0.999);
    EXPECT_LT(activate(Activation::Sigmoid, -10.0), 0.001);
}

TEST(Activations, SigmoidMonotone)
{
    double prev = -1.0;
    for (double x = -5.0; x <= 5.0; x += 0.1) {
        const double y = activate(Activation::Sigmoid, x);
        EXPECT_GE(y, prev);
        prev = y;
    }
}

TEST(Activations, TanhOddSymmetry)
{
    for (double x : {0.1, 0.7, 2.0}) {
        EXPECT_NEAR(activate(Activation::Tanh, x),
                    -activate(Activation::Tanh, -x), 1e-12);
    }
}

TEST(Activations, ReLU)
{
    EXPECT_DOUBLE_EQ(activate(Activation::ReLU, -3.0), 0.0);
    EXPECT_DOUBLE_EQ(activate(Activation::ReLU, 3.0), 3.0);
    EXPECT_DOUBLE_EQ(activate(Activation::ReLU, 0.0), 0.0);
}

TEST(Activations, IdentityAbsClamped)
{
    EXPECT_DOUBLE_EQ(activate(Activation::Identity, -2.5), -2.5);
    EXPECT_DOUBLE_EQ(activate(Activation::Abs, -2.5), 2.5);
    EXPECT_DOUBLE_EQ(activate(Activation::Clamped, -2.5), -1.0);
    EXPECT_DOUBLE_EQ(activate(Activation::Clamped, 0.5), 0.5);
    EXPECT_DOUBLE_EQ(activate(Activation::Clamped, 2.5), 1.0);
}

TEST(Activations, GaussPeaksAtZero)
{
    EXPECT_DOUBLE_EQ(activate(Activation::Gauss, 0.0), 1.0);
    EXPECT_LT(activate(Activation::Gauss, 1.0), 0.05);
}

TEST(Activations, NoOverflowAtExtremes)
{
    for (auto a : allActivations()) {
        for (double x : {-1e6, -60.0, 0.0, 60.0, 1e6}) {
            const double y = activate(a, x);
            EXPECT_TRUE(std::isfinite(y))
                << activationName(a) << "(" << x << ")";
        }
    }
}

TEST(Activations, NamesRoundTrip)
{
    for (auto a : allActivations())
        EXPECT_EQ(activationFromName(activationName(a)), a);
}

TEST(Activations, UnknownNameThrows)
{
    EXPECT_ANY_THROW(activationFromName("swish"));
}

TEST(Activations, FitsInFourBitField)
{
    EXPECT_LE(static_cast<int>(Activation::NumActivations), 16);
    EXPECT_EQ(allActivations().size(),
              static_cast<size_t>(Activation::NumActivations));
}

TEST(Aggregations, SumProductMeanOfKnownInputs)
{
    const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(aggregate(Aggregation::Sum, v), 10.0);
    EXPECT_DOUBLE_EQ(aggregate(Aggregation::Product, v), 24.0);
    EXPECT_DOUBLE_EQ(aggregate(Aggregation::Mean, v), 2.5);
    EXPECT_DOUBLE_EQ(aggregate(Aggregation::Max, v), 4.0);
    EXPECT_DOUBLE_EQ(aggregate(Aggregation::Min, v), 1.0);
}

TEST(Aggregations, Median)
{
    EXPECT_DOUBLE_EQ(aggregate(Aggregation::Median, {3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(aggregate(Aggregation::Median, {4.0, 1.0, 2.0, 3.0}),
                     2.5);
}

TEST(Aggregations, InPlaceMatchesCopyingFormBitForBit)
{
    // aggregateInPlace may reorder its buffer (Median sorts it) but
    // must return the same bits as the copying aggregate().
    genesys::XorWow rng(17);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<double> v(static_cast<size_t>(trial % 9));
        for (double &x : v)
            x = trial % 4 == 0 ? static_cast<double>(rng.uniformInt(-2, 2))
                               : rng.uniform(-3.0, 3.0);
        for (int i = 0;
             i < static_cast<int>(Aggregation::NumAggregations); ++i) {
            const auto a = static_cast<Aggregation>(i);
            std::vector<double> scratch = v;
            EXPECT_EQ(std::bit_cast<uint64_t>(aggregateInPlace(a, scratch)),
                      std::bit_cast<uint64_t>(aggregate(a, v)))
                << aggregationName(a) << " trial " << trial;
        }
    }
}

TEST(Aggregations, MaxAbsKeepsSign)
{
    EXPECT_DOUBLE_EQ(aggregate(Aggregation::MaxAbs, {1.0, -5.0, 3.0}),
                     -5.0);
}

TEST(Aggregations, EmptyInputIsZero)
{
    for (int i = 0; i < static_cast<int>(Aggregation::NumAggregations);
         ++i) {
        EXPECT_DOUBLE_EQ(
            aggregate(static_cast<Aggregation>(i), {}), 0.0);
    }
}

TEST(Aggregations, NamesRoundTrip)
{
    for (int i = 0; i < static_cast<int>(Aggregation::NumAggregations);
         ++i) {
        const auto a = static_cast<Aggregation>(i);
        EXPECT_EQ(aggregationFromName(aggregationName(a)), a);
    }
}

TEST(Aggregations, FitsInThreeBitField)
{
    EXPECT_LE(static_cast<int>(Aggregation::NumAggregations), 8);
}
