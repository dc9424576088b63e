/**
 * @file
 * Deterministic random number generation for GeneSys.
 *
 * The paper's EvE PEs are fed by a hardware XOR-WOW PRNG ("also used
 * within NVIDIA GPUs", Section IV-C4). We use the same generator for
 * both the software NEAT substrate and the hardware model so that a
 * software evolution run and a hardware-simulated run of the same seed
 * make identical stochastic decisions.
 */

#ifndef GENESYS_COMMON_RNG_HH
#define GENESYS_COMMON_RNG_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace genesys
{

/**
 * Complete serializable state of one XorWow stream: the five xorshift
 * words, the Weyl counter, AND the Box-Muller gaussian cache. The
 * cache is part of the observable stream state: gaussian() produces
 * variates in pairs and hands out the second one on the next call, so
 * a snapshot that dropped it would replay a different value on the
 * first post-restore gaussian() and silently diverge from the
 * uninterrupted run one draw later. Restoring a saved state resumes
 * the output sequence bit-identically for every draw kind.
 */
struct XorWowState
{
    uint32_t state[5] = {0, 0, 0, 0, 0};
    uint32_t weyl = 0;
    bool hasCachedGaussian = false;
    double cachedGaussian = 0.0;
};

/**
 * XOR-WOW pseudo random number generator (Marsaglia, 2003).
 *
 * Five 32-bit words of xorshift state plus a Weyl sequence counter.
 * This is the generator the GeneSys SoC instantiates next to the EvE
 * PE array; an 8-bit slice of the output feeds each PE every cycle.
 */
class XorWow
{
  public:
    /** Construct from a 64-bit seed, expanded via SplitMix64. */
    explicit XorWow(uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** Next raw 32-bit output. */
    uint32_t
    next32()
    {
        uint32_t t = state_[4];
        const uint32_t s = state_[0];
        state_[4] = state_[3];
        state_[3] = state_[2];
        state_[2] = state_[1];
        state_[1] = s;
        t ^= t >> 2;
        t ^= t << 1;
        t ^= s ^ (s << 4);
        state_[0] = t;
        weyl_ += 362437;
        return t + weyl_;
    }

    /** Next 64-bit output (two 32-bit draws). */
    uint64_t
    next64()
    {
        const uint64_t hi = next32();
        const uint64_t lo = next32();
        return (hi << 32) | lo;
    }

    /**
     * Next 8-bit output, as delivered to an EvE PE each cycle
     * (Section IV-C4: "The PRNG feeds a 8-bit random numbers every
     * cycle to all the PEs").
     */
    uint8_t next8() { return static_cast<uint8_t>(next32() >> 24); }

    /** Uniform double in [0, 1): a 53-bit mantissa from next64(). */
    double
    uniform()
    {
        return static_cast<double>(next64() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). n == 0 is a fatal error. */
    uint32_t
    uniformInt(uint32_t n)
    {
        // The Lemire rejection below computes -n % n, which divides by
        // zero for n == 0. That is reachable from choiceIndex() on an
        // empty container — make it a clear fatal error instead of UB.
        if (n == 0)
            emptyRange();
        // Lemire's multiply-shift rejection method for unbiased
        // bounded integers.
        uint64_t m = static_cast<uint64_t>(next32()) * n;
        uint32_t l = static_cast<uint32_t>(m);
        if (l < n) {
            const uint32_t t = -n % n;
            while (l < t) {
                m = static_cast<uint64_t>(next32()) * n;
                l = static_cast<uint32_t>(m);
            }
        }
        return static_cast<uint32_t>(m >> 32);
    }

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    int uniformInt(int lo, int hi);

    /**
     * Standard normal via Box-Muller (cached second variate). Inline,
     * like the other draws, so the gene loops that call it make no
     * calls except to libm (and to sineVariate for a skipped pair).
     */
    double
    gaussian()
    {
        if (hasCachedGaussian_) {
            hasCachedGaussian_ = false;
            return cachedGaussian_;
        }
        if (skippedPair_) {
            skippedPair_ = false;
            wordPending_ = false;
            cachedGaussian_ = sineVariate(pendingU1_, cachedGaussian_);
            return cachedGaussian_;
        }
        const auto [u1, u2] = boxMullerUniforms();
        const double r = std::sqrt(-2.0 * std::log(u1));
        const double theta = 2.0 * M_PI * u2;
        cachedGaussian_ = r * std::sin(theta);
        hasCachedGaussian_ = true;
        wordPending_ = false;
        return r * std::cos(theta);
    }

    /**
     * Advance the stream exactly as gaussian() does, without the
     * Box-Muller math. A pair drawn here keeps its two uniforms; the
     * sine variate is computed only if something reads it (a later
     * gaussian(), or saveState()), so every observable state matches
     * the one gaussian() leaves, down to the stale cache word.
     */
    void
    skipGaussian()
    {
        if (hasCachedGaussian_) {
            hasCachedGaussian_ = false;
            return;
        }
        if (skippedPair_) {
            skippedPair_ = false;
            return;
        }
        const auto [u1, u2] = boxMullerUniforms();
        pendingU1_ = u1;
        cachedGaussian_ = u2;
        skippedPair_ = true;
        wordPending_ = true;
    }

    /**
     * Normal with given mean and standard deviation. A zero stdev
     * skips the variate when `mean + 0 * g == mean` holds bit for bit
     * for every finite g: mean finite and not -0.0 (-0.0 + +0.0 is
     * +0.0).
     */
    double
    gaussian(double mean, double stdev)
    {
        const bool negative_zero = mean == 0.0 && std::signbit(mean);
        if (stdev == 0.0 && std::isfinite(mean) && !negative_zero) {
            skipGaussian();
            return mean;
        }
        return mean + stdev * gaussian();
    }

    /** Bernoulli trial: true with probability p. */
    bool bernoulli(double p) { return uniform() < p; }

    /**
     * Pick a uniformly random element index of a container. The
     * container must be non-empty (an empty one is a fatal error via
     * uniformInt(0), not undefined behaviour).
     */
    template <typename Container>
    std::size_t
    choiceIndex(const Container &c)
    {
        return static_cast<std::size_t>(
            uniformInt(static_cast<uint32_t>(c.size())));
    }

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = uniformInt(static_cast<uint32_t>(i));
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Reseed the generator (resets gaussian cache too). */
    void reseed(uint64_t seed);

    /**
     * Snapshot the complete stream state, including the Box-Muller
     * gaussian cache. loadState(saveState()) resumes the output
     * sequence bit-identically (see XorWowState).
     */
    XorWowState saveState() const;

    /** Restore a state captured with saveState(). */
    void loadState(const XorWowState &s);

  private:
    /** uniformInt(0): a fatal error, out of line. */
    [[noreturn]] static void emptyRange();

    /** The two uniforms one Box-Muller pair consumes, in draw order. */
    std::pair<double, double>
    boxMullerUniforms()
    {
        double u1 = 0.0;
        do {
            u1 = uniform();
        } while (u1 <= 1e-300);
        return {u1, uniform()};
    }

    /**
     * The sine variate of a skipped pair. Out of line and static, so
     * the gene loops that inline gaussian() neither grow by the libm
     * calls nor pass the generator's address anywhere, and keep their
     * copy of it in registers.
     */
    static double sineVariate(double u1, double u2);

    uint32_t state_[5];
    uint32_t weyl_;
    /** cachedGaussian_ is a variate the next gaussian() returns. */
    bool hasCachedGaussian_;
    /**
     * The pair skipGaussian() drew last still owes its sine variate
     * to the next gaussian() or skipGaussian(). Kept apart from
     * hasCachedGaussian_, so a cache hit, the gene loops' common path,
     * tests one flag.
     */
    bool skippedPair_;
    /**
     * The cache word is not computed yet: it holds a skipped pair's
     * second uniform, and pendingU1_ its first. Set with skippedPair_,
     * and still set after a skip consumes that pair (the stale word
     * saveState() reports is its sine variate).
     */
    bool wordPending_;
    double cachedGaussian_;
    double pendingU1_;
};

/** SplitMix64 step: used to expand seeds and derive sub-stream seeds. */
uint64_t splitMix64(uint64_t &state);

/**
 * Derive a child seed from a parent seed and a stream index. Used to
 * give each run / environment instance / PE an independent stream.
 */
uint64_t deriveSeed(uint64_t base, uint64_t stream);

} // namespace genesys

#endif // GENESYS_COMMON_RNG_HH
