/**
 * @file
 * Tests for the XOR-WOW PRNG and seed derivation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"

using namespace genesys;

TEST(XorWow, DeterministicForSameSeed)
{
    XorWow a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next32(), b.next32());
}

TEST(XorWow, DifferentSeedsDiverge)
{
    XorWow a(1), b(2);
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next32() == b.next32())
            ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(XorWow, ReseedRestartsSequence)
{
    XorWow a(7);
    std::vector<uint32_t> first;
    for (int i = 0; i < 16; ++i)
        first.push_back(a.next32());
    a.reseed(7);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next32(), first[static_cast<size_t>(i)]);
}

TEST(XorWow, UniformInUnitInterval)
{
    XorWow rng(3);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(XorWow, UniformMeanNearHalf)
{
    XorWow rng(5);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(XorWow, UniformRangeRespectsBounds)
{
    XorWow rng(11);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform(-3.0, 2.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 2.0);
    }
}

TEST(XorWow, UniformIntCoversAllValues)
{
    XorWow rng(13);
    std::set<uint32_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniformInt(7u));
    EXPECT_EQ(seen.size(), 7u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(XorWow, UniformIntInclusiveRange)
{
    XorWow rng(17);
    std::set<int> seen;
    for (int i = 0; i < 2000; ++i) {
        const int v = rng.uniformInt(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(XorWow, UniformIntIsRoughlyUniform)
{
    XorWow rng(19);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.uniformInt(10u)];
    for (int c : counts)
        EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(XorWow, GaussianMoments)
{
    XorWow rng(23);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(XorWow, GaussianScaled)
{
    XorWow rng(29);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(XorWow, BernoulliProbability)
{
    XorWow rng(31);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(XorWow, ShufflePreservesElements)
{
    XorWow rng(37);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(XorWow, Next8UsesHighBits)
{
    XorWow rng(41);
    std::set<uint8_t> seen;
    for (int i = 0; i < 20000; ++i)
        seen.insert(rng.next8());
    // All 256 byte values should appear.
    EXPECT_EQ(seen.size(), 256u);
}

TEST(XorWow, UniformIntZeroRangeIsFatal)
{
    // `-n % n` is UB at n == 0 (reachable via choiceIndex on an empty
    // container); the guard turns it into a descriptive user error.
    XorWow rng(43);
    EXPECT_THROW((void)rng.uniformInt(0u), std::runtime_error);
}

TEST(XorWow, ChoiceIndexEmptyContainerIsFatal)
{
    XorWow rng(47);
    const std::vector<int> empty;
    EXPECT_THROW((void)rng.choiceIndex(empty), std::runtime_error);
}

TEST(XorWow, SaveLoadRoundTripBitIdentical)
{
    XorWow a(53);
    // Burn a mixed prefix so the state is mid-stream.
    for (int i = 0; i < 100; ++i) {
        (void)a.next32();
        (void)a.uniform();
        (void)a.uniformInt(17u);
    }
    const XorWowState s = a.saveState();
    XorWow b(999); // deliberately different seed; loadState overwrites
    b.loadState(s);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.next32(), b.next32());
        EXPECT_EQ(a.uniform(), b.uniform());
        EXPECT_EQ(a.uniformInt(-5, 5), b.uniformInt(-5, 5));
    }
}

TEST(XorWow, SaveLoadCapturesGaussianCache)
{
    // Box-Muller generates two variates and caches the second: the
    // cache is observable stream state. Snapshot with the cache FULL
    // (odd number of gaussian() calls) — a save/load that dropped it
    // would shift every subsequent gaussian by one.
    XorWow a(59);
    (void)a.gaussian(); // fills the cache with the second variate
    const XorWowState full = a.saveState();
    EXPECT_TRUE(full.hasCachedGaussian);

    XorWow b(1);
    b.loadState(full);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.gaussian(), b.gaussian());
        EXPECT_EQ(a.next32(), b.next32());
    }

    // And with the cache EMPTY (one more call consumes it).
    (void)a.gaussian();
    const XorWowState empty = a.saveState();
    EXPECT_FALSE(empty.hasCachedGaussian);
    b.loadState(empty);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.gaussian(), b.gaussian());
}

TEST(XorWow, SaveStateDoesNotPerturbStream)
{
    XorWow a(61), b(61);
    for (int i = 0; i < 10; ++i) {
        (void)a.saveState();
        EXPECT_EQ(a.gaussian(), b.gaussian());
    }
}

namespace
{

void
expectSameState(const XorWow &a, const XorWow &b, const std::string &at)
{
    const XorWowState x = a.saveState();
    const XorWowState y = b.saveState();
    for (int i = 0; i < 5; ++i)
        ASSERT_EQ(x.state[i], y.state[i]) << at;
    ASSERT_EQ(x.weyl, y.weyl) << at;
    ASSERT_EQ(x.hasCachedGaussian, y.hasCachedGaussian) << at;
    ASSERT_EQ(std::bit_cast<uint64_t>(x.cachedGaussian),
              std::bit_cast<uint64_t>(y.cachedGaussian))
        << at;
}

} // namespace

TEST(XorWow, SkippedVariatesMatchAStreamThatNeverSkips)
{
    // `skipping` takes every skip the library offers: skipGaussian(),
    // and gaussian(m, 0) for the means where m + 0 * g == m holds.
    // `full` draws every variate through gaussian() and computes
    // m + 0 * g itself. After every call of a random interleaving the
    // two must agree on the value and on the whole saved state, the
    // stale cache word of a consumed pair included.
    const double inf = std::numeric_limits<double>::infinity();
    const double means[] = {0.0, -0.0, 1.5, inf, -inf,
                            std::numeric_limits<double>::quiet_NaN()};
    XorWow ops(0x5C1F);
    XorWow skipping(77), full(77);
    std::vector<XorWowState> saved{full.saveState()};
    for (int step = 0; step < 20000; ++step) {
        const std::string at = "step " + std::to_string(step);
        switch (ops.uniformInt(6u)) {
          case 0:
            ASSERT_EQ(std::bit_cast<uint64_t>(skipping.gaussian()),
                      std::bit_cast<uint64_t>(full.gaussian()))
                << at;
            break;
          case 1: {
            const double m = means[ops.uniformInt(6u)];
            const double stdev = ops.bernoulli(0.5) ? 0.0 : -0.0;
            const double want = m + stdev * full.gaussian();
            ASSERT_EQ(std::bit_cast<uint64_t>(skipping.gaussian(m, stdev)),
                      std::bit_cast<uint64_t>(want))
                << at;
            break;
          }
          case 2:
            skipping.skipGaussian();
            (void)full.gaussian();
            break;
          case 3:
            saved.push_back(full.saveState());
            ASSERT_NO_FATAL_FAILURE(expectSameState(skipping, full, at));
            break;
          case 4: {
            const XorWowState &s =
                saved[ops.uniformInt(static_cast<uint32_t>(saved.size()))];
            skipping.loadState(s);
            full.loadState(s);
            break;
          }
          default:
            ASSERT_EQ(skipping.next32(), full.next32()) << at;
            break;
        }
        ASSERT_NO_FATAL_FAILURE(expectSameState(skipping, full, at));
    }
}

TEST(SplitMix, DeriveSeedIndependentStreams)
{
    const uint64_t base = 99;
    XorWow a(deriveSeed(base, 0)), b(deriveSeed(base, 1));
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next32() == b.next32())
            ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(SplitMix, DeriveSeedDeterministic)
{
    EXPECT_EQ(deriveSeed(5, 9), deriveSeed(5, 9));
    EXPECT_NE(deriveSeed(5, 9), deriveSeed(5, 10));
    EXPECT_NE(deriveSeed(5, 9), deriveSeed(6, 9));
}
