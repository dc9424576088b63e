/**
 * @file
 * GoogleTest assertions over the evaluation path: outputs, episodes,
 * genome details and engine passes compared bit for bit, usually
 * against the serial loop of reference_eval.hh or an interpreter.
 * Header-only, because genesys_oracle is also linked into
 * bench_micro_kernels, which does not link GoogleTest and checks
 * episodes with oracle::identical directly.
 */

#ifndef GENESYS_ORACLE_ENV_EXPECT_EVAL_HH
#define GENESYS_ORACLE_ENV_EXPECT_EVAL_HH

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "env/eval_fixtures.hh"
#include "env/reference_eval.hh"

namespace genesys::oracle
{

/** Bit-pattern equality: exact, and NaN-safe unlike EXPECT_EQ. */
inline ::testing::AssertionResult
bitEqual(double a, double b)
{
    if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " != " << b << " (bits 0x" << std::hex
           << std::bit_cast<uint64_t>(a) << " vs 0x"
           << std::bit_cast<uint64_t>(b) << ")";
}

inline void
expectEpisodeIdentical(const env::EpisodeResult &got,
                       const env::EpisodeResult &want)
{
    EXPECT_TRUE(identical(got, want))
        << "got fitness " << got.fitness << " reward "
        << got.cumulativeReward << " steps " << got.steps << " macs "
        << got.macs << "; want fitness " << want.fitness << " reward "
        << want.cumulativeReward << " steps " << want.steps << " macs "
        << want.macs;
}

inline void
expectEpisodesIdentical(std::span<const env::EpisodeResult> got,
                        std::span<const env::EpisodeResult> want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t e = 0; e < want.size(); ++e) {
        SCOPED_TRACE("episode " + std::to_string(e));
        expectEpisodeIdentical(got[e], want[e]);
    }
}

inline void
expectDetailIdentical(const DetailedEval &got, const DetailedEval &want)
{
    EXPECT_TRUE(bitEqual(got.fitness, want.fitness));
    EXPECT_EQ(got.inferences, want.inferences);
    EXPECT_EQ(got.macs, want.macs);
    EXPECT_EQ(got.maxEpisodeSteps, want.maxEpisodeSteps);
    expectEpisodesIdentical(got.episodes, want.episodes);
}

/**
 * An engine pass over `batch` against one oracle detail per genome:
 * results in submission order under their own keys, each detail and
 * its episodes bit-identical.
 */
inline void
expectMatchesOracle(const EngineRun &run,
                    const std::vector<neat::GenomeHandle> &batch,
                    const std::vector<DetailedEval> &want)
{
    ASSERT_EQ(run.results.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE("genome key " + std::to_string(batch[i].key));
        EXPECT_EQ(run.results[i].genomeKey, batch[i].key);
        expectDetailIdentical(run.details[i], want[i]);
    }
}

} // namespace genesys::oracle

#endif // GENESYS_ORACLE_ENV_EXPECT_EVAL_HH
