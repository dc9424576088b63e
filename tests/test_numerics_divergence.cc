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
#include <iterator>
#include <limits>
#include <string>
#include <utility>
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

// --- function-unit tables ---------------------------------------------------
// The plan kernel and the oracle interpreter share activateQuantized,
// so the sweeps cannot see a change to a function unit, and the libm
// bounds above leave room for one inside them. These digests pin each
// unit's output bits over a dense grid plus hostile inputs: any change
// to a core, a clamp or the Limit & Quantize stage moves a constant.

namespace
{

/** Inputs every table folds after its dense grid. */
std::vector<double>
hostileInputs()
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr double max = std::numeric_limits<double>::max();
    constexpr double sub = std::numeric_limits<double>::denorm_min();
    std::vector<double> xs = {0.0, -0.0, inf, -inf,
                              std::numeric_limits<double>::quiet_NaN(),
                              sub, -sub, max, -max};
    // Clamp points of the cores and their callers (tanh's +-3 at the
    // 2.5x scaling, sin's and softplus' +-60 at 5x, exp's +-16 and
    // +-60, gauss' +-3.4, clamped's +-1, the 1e-7 log/inv floor) and
    // the Q6.10 rails with the half-LSB past each.
    for (double c : {1.2, 3.0, 12.0, 3.2, 16.0, 60.0, 3.4, 1.0, 1e-7,
                     32.0, 31.9990234375, 32.00048828125}) {
        xs.push_back(c);
        xs.push_back(-c);
    }
    return xs;
}

/**
 * FNV-1a over the output bits of `f` on every multiple of 2^-12 in
 * [-range, range], then on hostileInputs(). A NaN output folds as the
 * canonical quiet NaN: its sign and payload are the host's, not the
 * unit's.
 */
template <typename F>
uint64_t
functionUnitDigest(F f, double range)
{
    uint64_t h = 0xCBF29CE484222325ULL;
    auto mix = [&h](double v) {
        uint64_t bits = std::isnan(v) ? 0x7FF8000000000000ULL
                                      : std::bit_cast<uint64_t>(v);
        for (int b = 0; b < 8; ++b, bits >>= 8) {
            h ^= bits & 0xFF;
            h *= 0x100000001B3ULL;
        }
    };
    const auto steps = static_cast<long>(range * 4096.0);
    for (long k = -steps; k <= steps; ++k)
        mix(f(static_cast<double>(k) * 0x1p-12));
    for (double x : hostileInputs())
        mix(f(x));
    return h;
}

} // namespace

TEST(HwFunctionUnits, ActivationTablesArePinned)
{
    constexpr auto q = nn::hwact::hwQuantizer();
    const std::pair<neat::Activation, uint64_t> pinned[] = {
        {neat::Activation::Sigmoid, 0x5b1dd9c6951f48faULL},
        {neat::Activation::Tanh, 0x4a32bcfdd6024b64ULL},
        {neat::Activation::ReLU, 0xe611f60346f4188cULL},
        {neat::Activation::Identity, 0x9e4b0e5206f27c4cULL},
        {neat::Activation::Sin, 0x5fe2ce2d8cdf1758ULL},
        {neat::Activation::Gauss, 0x7804d98166157bbdULL},
        {neat::Activation::Abs, 0x99b2abda9b0a1e54ULL},
        {neat::Activation::Clamped, 0x04f994f5f266b190ULL},
        {neat::Activation::Square, 0xc70edfd69510e0e4ULL},
        {neat::Activation::Cube, 0xfc9a10e0f3709cf6ULL},
        {neat::Activation::Log, 0xdcb96e8eb166b750ULL},
        {neat::Activation::Exp, 0x3e99402ed9236a32ULL},
        {neat::Activation::Hat, 0x86096083640cbb78ULL},
        {neat::Activation::Inv, 0xa186dafe170d1212ULL},
        {neat::Activation::Softplus, 0xe3955dae289a49c8ULL},
    };
    static_assert(std::size(pinned) ==
                  static_cast<size_t>(neat::Activation::NumActivations));
    for (const auto &[a, digest] : pinned) {
        const uint64_t got = functionUnitDigest(
            [a, &q](double x) {
                return nn::hwact::activateQuantized(a, x, q);
            },
            32.0);
        EXPECT_EQ(got, digest) << neat::activationName(a) << " digest 0x"
                               << std::hex << got;
    }
}

TEST(HwFunctionUnits, QuantizerTableIsPinned)
{
    // The grid runs two units past each rail, so it folds every
    // half-LSB tie (round half to even) and both saturations.
    constexpr auto q = nn::hwact::hwQuantizer();
    const uint64_t got = functionUnitDigest(q, 34.0);
    EXPECT_EQ(got, 0x5c1b5f9713763c4cULL)
        << "Q6.10 quantizer digest 0x" << std::hex << got;
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
