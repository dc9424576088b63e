/**
 * @file
 * Differential harness for the numerics tiers (nn/numerics.hh).
 *
 * The HwFaithful tier is a deliberately different numerics: Q6.10
 * attribute quantization at compile time, branch-free polynomial
 * activations and per-node Limit & Quantize at run time. It can never
 * be bit-identical to the float Reference tier — instead its contract
 * is two-sided and this suite pins both sides:
 *
 *  1. WITHIN the hw tier, the plan is exact: its outputs equal the
 *     test oracle's one-node-at-a-time interpreter under the same
 *     tier bit for bit (test_compiled_plan and test_recurrent_plan
 *     fuzz this; the golden-digest suite extends it to threads,
 *     execution modes and checkpoint/resume at system level).
 *
 *  2. ACROSS tiers, divergence is bounded: per-output activation
 *     error on dense sigmoid policies, and end-to-end fitness
 *     divergence per environment on fixed-seed golden configurations
 *     (generation 0 compares the SAME genomes on the SAME episode
 *     seeds, so its divergence is purely numeric — the tightest
 *     end-to-end statement available before selection amplifies
 *     trajectory differences).
 *
 * The bounds asserted here are the ones documented in README.md
 * ("Numerics tiers"); tightening an approximation lets them shrink,
 * and a regression that blows one up fails loudly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/fixed_point.hh"
#include "common/rng.hh"
#include "core/genesys.hh"
#include "env/eval_fixtures.hh"
#include "neat/activations.hh"
#include "neat/genome.hh"
#include "nn/compiled_plan.hh"
#include "nn/feedforward.hh"
#include "nn/hw_activations.hh"
#include "nn/numerics.hh"
#include "nn/plan_fixtures.hh"

using namespace genesys;
using neat::Genome;
using neat::NeatConfig;

namespace
{

/**
 * ioConfig with node responses drawn and mutated away from the
 * default's exact 1.0, so a tier that mistreats `response` shows.
 */
NeatConfig
responseConfig(int inputs, int outputs)
{
    NeatConfig cfg = oracle::ioConfig(inputs, outputs);
    cfg.response.initStdev = 0.5;
    cfg.response.mutatePower = 0.5;
    cfg.response.mutateRate = 0.5;
    return cfg;
}

/**
 * Per-output |hw - float| bound for sigmoid policies grown by the
 * default config. Budget: sigmoid approximation error <= ~1.3e-2 per
 * node (0.5 x tanhCore's ~2.4e-2, + 2^-10/2 quantization), amplified
 * through the output layer by the weighted fan-in; random-sign
 * cancellation keeps observed divergence well below the worst case.
 * Documented in README.md — tighten only with measurements.
 */
constexpr double kOutputDivergenceBound = 0.15;

/**
 * Drive a feed-forward genome through both tiers on random inputs:
 * the hw plan equals the hw-tier interpreter bit for bit, and
 * hw-vs-float output divergence stays within bound.
 */
void
checkFeedForwardGenome(const NeatConfig &cfg, const Genome &g,
                       uint64_t seed, double bound,
                       double *max_seen = nullptr)
{
    constexpr int kTrials = 29;
    const auto ref = nn::CompiledPlan::compileFor(g, cfg);
    const auto hw =
        nn::CompiledPlan::compileFor(g, cfg, nn::NumericsTier::HwFaithful);
    ASSERT_EQ(hw.numericsTier(), nn::NumericsTier::HwFaithful);
    ASSERT_EQ(ref.numericsTier(), nn::NumericsTier::Reference);
    const auto oracle = nn::FeedForwardNetwork::create(
        g, cfg, nn::NumericsTier::HwFaithful);

    XorWow rng(seed);
    nn::PlanScratch ref_s, hw_s;
    for (int t = 0; t < kTrials; ++t) {
        std::vector<double> in(static_cast<size_t>(cfg.numInputs));
        for (auto &x : in)
            x = rng.uniform(-4.0, 4.0);
        hw.activate(in, hw_s);
        ref.activate(in, ref_s);
        const std::vector<double> expect = oracle.activate(in);
        for (size_t o = 0; o < hw_s.outputs.size(); ++o) {
            // Side 1: exact within-tier identity.
            ASSERT_EQ(std::bit_cast<uint64_t>(expect[o]),
                      std::bit_cast<uint64_t>(hw_s.outputs[o]))
                << "hw plan/interpreter diverge, trial=" << t
                << " output=" << o;
            // Side 2: bounded cross-tier divergence.
            const double dv = std::fabs(hw_s.outputs[o] - ref_s.outputs[o]);
            EXPECT_LE(dv, bound) << "trial=" << t << " output=" << o;
            if (max_seen != nullptr && dv > *max_seen)
                *max_seen = dv;
        }
    }
}

} // namespace

TEST(NumericsDivergence, FeedForwardHwBitIdentityAndBoundedDivergence)
{
    const auto cfg = oracle::ioConfig(8, 4);
    double max_seen = 0.0;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        const auto g = oracle::grownGenome(cfg, 25, seed);
        checkFeedForwardGenome(cfg, g, seed * 977,
                               kOutputDivergenceBound, &max_seen);
    }
    // The tiers must actually differ somewhere — a zero here means
    // the hw lowering silently fell through to the float path.
    EXPECT_GT(max_seen, 0.0);
    RecordProperty("max_output_divergence", std::to_string(max_seen));
    std::cout << "[ divergence ] max per-output |hw - float| = "
              << max_seen << " (bound " << kOutputDivergenceBound
              << ")\n";

    // Side 1 again with varied responses. The bound was sized on the
    // default config, so only the within-tier identity is asserted.
    const auto rcfg = responseConfig(8, 4);
    for (uint64_t seed = 1; seed <= 12; ++seed)
        checkFeedForwardGenome(rcfg, oracle::grownGenome(rcfg, 25, seed),
                               seed * 977,
                               std::numeric_limits<double>::infinity());
}

TEST(NumericsDivergence, HwAttributesLandOnQuantizedGrid)
{
    // Every hw-tier node output must sit exactly on the Q6.10 grid:
    // re-quantizing an output through the codec is the identity.
    const auto cfg = oracle::ioConfig(8, 4);
    const FixedPointCodec codec(nn::kHwIntBits, nn::kHwFracBits);
    const auto g = oracle::grownGenome(cfg, 25, 7);
    const auto hw =
        nn::CompiledPlan::compileFor(g, cfg, nn::NumericsTier::HwFaithful);
    XorWow rng(99);
    nn::PlanScratch s;
    for (int t = 0; t < 32; ++t) {
        std::vector<double> in(static_cast<size_t>(cfg.numInputs));
        for (auto &x : in)
            x = rng.uniform(-4.0, 4.0);
        hw.activate(in, s);
        for (const double o : s.outputs) {
            EXPECT_EQ(std::bit_cast<uint64_t>(codec.quantize(o)),
                      std::bit_cast<uint64_t>(o))
                << o << " is off the Q6.10 grid";
        }
    }
}

TEST(NumericsDivergence, HwSigmoidWithinBoundOfLibm)
{
    // Per-activation approximation bound for the hw sigmoid: tanhCore's
    // ~2.4e-2 error halved, plus Q6.10 rounding. Swept over the span
    // policies see (pre-activations in [-3, 3], the sigmoid's 5x
    // input scaling saturating well inside it).
    constexpr double kSigmoidBound = 1.3e-2;
    constexpr auto q = nn::hwact::hwQuantizer();
    double max_seen = 0.0;
    for (int k = -3000; k <= 3000; ++k) {
        const double x = k * 1e-3;
        const double dv = std::fabs(
            nn::hwact::activateQuantized(neat::Activation::Sigmoid, x, q) -
            neat::activate(neat::Activation::Sigmoid, x));
        EXPECT_LE(dv, kSigmoidBound) << "x=" << x;
        max_seen = std::max(max_seen, dv);
    }
    EXPECT_GT(max_seen, 0.0);
    std::cout << "[ divergence ] max hw sigmoid |hw - libm| = " << max_seen
              << " (bound " << kSigmoidBound << ")\n";
}

namespace
{

/**
 * Fixed-seed golden configuration, one per environment (mirrors the
 * golden-digest suite's shape: small population, few generations).
 */
core::SystemConfig
divergenceConfig(const std::string &env_name, nn::NumericsTier tier)
{
    core::SystemConfig cfg;
    cfg.envName = env_name;
    cfg.numericsTier = tier;
    cfg.maxGenerations = 4;
    cfg.episodesPerEval = 1;
    cfg.seed = 20260808;
    cfg.numThreads = 1;
    cfg.tweakNeat = [](neat::NeatConfig &ncfg) {
        ncfg.populationSize = 24;
    };
    return cfg;
}

struct TierRun
{
    double gen0Mean = 0.0;
    double bestFitness = 0.0;
};

TierRun
runTier(const std::string &env_name, nn::NumericsTier tier)
{
    core::System sys(divergenceConfig(env_name, tier));
    const core::RunSummary s = sys.run();
    TierRun r;
    r.gen0Mean = sys.reports().front().algo.meanFitness;
    r.bestFitness = s.bestFitness;
    return r;
}

/** |a - b| relative to the larger magnitude (0 when both ~0). */
double
relDivergence(double a, double b)
{
    const double denom = std::max(std::fabs(a), std::fabs(b));
    return denom < 1e-9 ? 0.0 : std::fabs(a - b) / denom;
}

/**
 * Per-environment relative bound on generation-0 mean fitness (same
 * genomes, same episode seeds — purely numeric divergence plus the
 * trajectory sensitivity of the environment's dynamics). Documented
 * in README.md next to the tier semantics.
 */
struct EnvBound
{
    const char *env;
    double gen0Bound;
};

constexpr EnvBound kEnvBounds[] = {
    {"CartPole_v0", 0.50},
    {"MountainCar_v0", 0.25},
    {"AirRaid-ram-v0", 0.50},
};

} // namespace

TEST(NumericsDivergence, FitnessDivergenceBoundedPerEnvironment)
{
    for (const EnvBound &eb : kEnvBounds) {
        const TierRun ref = runTier(eb.env, nn::NumericsTier::Reference);
        const TierRun hw = runTier(eb.env, nn::NumericsTier::HwFaithful);
        EXPECT_LE(relDivergence(ref.gen0Mean, hw.gen0Mean), eb.gen0Bound)
            << eb.env << ": gen-0 mean fitness " << ref.gen0Mean
            << " (float) vs " << hw.gen0Mean << " (hw)";
        // Selection may amplify trajectory divergence in later
        // generations, but the hw tier must remain a *working*
        // numerics — a policy search that still makes progress, not
        // a degenerate one. Both runs rank populations on identical
        // seeds, so comparable best fitness is the sanity floor.
        EXPECT_GT(hw.bestFitness, 0.25 * ref.bestFitness)
            << eb.env << ": hw-tier search collapsed (best "
            << hw.bestFitness << " vs float " << ref.bestFitness << ")";
    }
}
