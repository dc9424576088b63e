/**
 * @file
 * Tests for the running moments and the figure series helpers.
 */

#include <gtest/gtest.h>

#include "common/series.hh"
#include "common/stats.hh"

using namespace genesys;

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stdev(), 0.0);
}

TEST(RunningStat, SingleSample)
{
    RunningStat s;
    s.add(4.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.5);
    EXPECT_DOUBLE_EQ(s.min(), 4.5);
    EXPECT_DOUBLE_EQ(s.max(), 4.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, KnownMoments)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stdev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesCombined)
{
    RunningStat a, b, all;
    for (int i = 0; i < 50; ++i) {
        const double x = i * 0.37;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty)
{
    RunningStat a, empty;
    a.add(1.0);
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 2u);
}

TEST(Percentile, MedianAndExtremes)
{
    std::vector<double> v{5, 1, 3, 2, 4};
    EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
}

TEST(Percentile, Interpolates)
{
    std::vector<double> v{0.0, 10.0};
    EXPECT_DOUBLE_EQ(percentile(v, 25), 2.5);
}

TEST(Series, MeanCombinesRaggedRuns)
{
    const Series m = meanSeries({{1.0, 2.0, 3.0}, {3.0, 4.0}});
    ASSERT_EQ(m.size(), 3u);
    EXPECT_DOUBLE_EQ(m[0], 2.0);
    EXPECT_DOUBLE_EQ(m[1], 3.0);
    EXPECT_DOUBLE_EQ(m[2], 3.0); // only the first run contributes
}

TEST(Series, MaxEnvelope)
{
    const Series m = maxSeries({{1.0, 5.0}, {3.0, 2.0, 9.0}});
    ASSERT_EQ(m.size(), 3u);
    EXPECT_DOUBLE_EQ(m[0], 3.0);
    EXPECT_DOUBLE_EQ(m[1], 5.0);
    EXPECT_DOUBLE_EQ(m[2], 9.0);
}
