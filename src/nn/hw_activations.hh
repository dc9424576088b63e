/**
 * @file
 * Branch-free activation approximations for the HwFaithful numerics
 * tier — the no-libm activation step of the hw-tier plan kernel.
 *
 * The reference activations (neat::activate, src/neat/activations.cc)
 * call libm per node. The GeneSys hardware has no libm: EvE/ADAM run
 * fixed-point datapaths with polynomial function units. Each functor here mirrors one reference formula —
 * same input scaling and clamps — with the transcendental core
 * replaced by a rational or truncated-series approximation in the
 * shape of the UPMEM in-memory-inference exemplar:
 *
 *   tanh(x) ~= x * (27 + x^2) / (27 + 9 x^2)   (clamped to +-3,
 *              where the rational hits exactly +-1)
 *   exp(x)  ~= taylor5(x / 16) ^ 16            (4 squarings)
 *
 * Everything is straight-line min/max/mul/add (plus one division for
 * tanh-family nodes), with a fixed expression order, so the plan
 * kernel and the test oracle's one-node-at-a-time interpreter compute
 * the same bits through activateQuantized. Approximation error is
 * bounded per activation below and end-to-end (float-vs-hw fitness
 * divergence) in tests/test_numerics_divergence.cc.
 *
 * Every node output then passes through the caller's
 * FixedPointQuantizer — the EvE "Limit & Quantize" stage — so values
 * stay on the Q6.10 grid between nodes.
 */

#ifndef GENESYS_NN_HW_ACTIVATIONS_HH
#define GENESYS_NN_HW_ACTIVATIONS_HH

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/fixed_point.hh"
#include "neat/activations.hh"
#include "nn/numerics.hh"

namespace genesys::nn::hwact
{

/**
 * The Q6.10 Limit & Quantize stage as a compile-time constant —
 * numerically identical to FixedPointCodec(kHwIntBits,
 * kHwFracBits).quantizer() (pinned in tests/test_fixed_point.cc),
 * available constexpr so the hot loops fold the four constants
 * instead of loading them through a pointer.
 */
constexpr FixedPointQuantizer
hwQuantizer()
{
    FixedPointQuantizer q;
    q.scale = static_cast<double>(1 << kHwFracBits);
    q.invScale = 1.0 / q.scale; // exact: power of two
    q.minRaw = static_cast<double>(
        -(1 << (kHwIntBits + kHwFracBits - 1)));
    q.maxRaw = static_cast<double>(
        (1 << (kHwIntBits + kHwFracBits - 1)) - 1);
    return q;
}

inline double
clampv(double x, double lo, double hi)
{
    return std::min(std::max(x, lo), hi);
}

/**
 * Rational tanh core (UPMEM shape). Max absolute error vs std::tanh
 * is ~2.4e-2 near |x| = 1.6; the +-3 clamp lands exactly on +-1
 * (3 * 36 / 108), so the saturation is continuous and branch-free.
 */
inline double
tanhCore(double x)
{
    const double t = clampv(x, -3.0, 3.0);
    const double t2 = t * t;
    return t * (27.0 + t2) / (27.0 + 9.0 * t2);
}

/**
 * Truncated-series exp: degree-5 Taylor of exp(x/16), squared four
 * times. Relative error is < 2e-4 for x in [-7, 4] — the entire span
 * whose output survives Q6.10 quantization (exp(x) saturates at the
 * +32 rail for x > ~3.5 and underflows the 2^-10 grid below ~-7).
 * Inputs are clamped to +-16 so the series argument stays in [-1, 1].
 */
inline double
expCore(double x)
{
    const double z = clampv(x, -16.0, 16.0) * (1.0 / 16.0);
    double p =
        1.0 +
        z * (1.0 +
             z * (0.5 +
                  z * ((1.0 / 6.0) +
                       z * ((1.0 / 24.0) + z * (1.0 / 120.0)))));
    p *= p;
    p *= p;
    p *= p;
    p *= p;
    return p;
}

/**
 * Bit-hack log core: exponent from the IEEE-754 representation,
 * mantissa via the atanh series log(m) = 2(s + s^3/3 + s^5/5 + s^7/7)
 * with s = (m-1)/(m+1), |s| <= 1/3. Absolute error < 2e-5. Matches
 * the reference's 1e-7 floor (so the argument is always a positive
 * normal and the bit decomposition is exact).
 */
inline double
logCore(double x)
{
    const double c = std::max(x, 1e-7);
    const uint64_t bits = std::bit_cast<uint64_t>(c);
    const int e = static_cast<int>((bits >> 52) & 0x7ffu) - 1023;
    const double m = std::bit_cast<double>(
        (bits & 0xfffffffffffffull) | 0x3ff0000000000000ull);
    const double s = (m - 1.0) / (m + 1.0);
    const double s2 = s * s;
    const double lm =
        2.0 * s *
        (1.0 + s2 * ((1.0 / 3.0) + s2 * ((1.0 / 5.0) + s2 * (1.0 / 7.0))));
    return static_cast<double>(e) * 0.6931471805599453 + lm;
}

/**
 * Odd-Taylor sin core with one magic-constant turn reduction into
 * [-pi, pi]. Max absolute error ~7e-3 at the +-pi seam (where sin
 * itself crosses 0). The round-to-nearest uses the same 1.5*2^52
 * trick as FixedPointQuantizer — no std::nearbyint call to block
 * vectorization on pre-SSE4 baselines.
 */
inline double
sinCore(double x)
{
    constexpr double magic = 6755399441055744.0; // 1.5 * 2^52
    const double turns = x * 0.15915494309189535; // 1 / 2pi
    const double k = (turns + magic) - magic;
    const double r = x - k * 6.283185307179586;
    const double r2 = r * r;
    return r *
           (1.0 +
            r2 * ((-1.0 / 6.0) +
                  r2 * ((1.0 / 120.0) +
                        r2 * ((-1.0 / 5040.0) +
                              r2 * ((1.0 / 362880.0) -
                                    r2 * (1.0 / 39916800.0))))));
}

// One functor per neat::Activation, mirroring the reference formula's
// input scaling and clamps exactly (see src/neat/activations.cc); only
// the transcendental core differs.

struct Sigmoid
{
    // sigmoid(5x) = (1 + tanh(2.5x)) / 2.
    double operator()(double x) const
    {
        return 0.5 * (1.0 + tanhCore(2.5 * x));
    }
};
struct Tanh
{
    double operator()(double x) const { return tanhCore(2.5 * x); }
};
struct ReLU
{
    double operator()(double x) const { return std::max(x, 0.0); }
};
struct Identity
{
    double operator()(double x) const { return x; }
};
struct Sin
{
    double operator()(double x) const
    {
        return sinCore(clampv(5.0 * x, -60.0, 60.0));
    }
};
struct Gauss
{
    double operator()(double x) const
    {
        const double c = clampv(x, -3.4, 3.4);
        return expCore(-5.0 * c * c);
    }
};
struct Abs
{
    double operator()(double x) const { return std::fabs(x); }
};
struct Clamped
{
    double operator()(double x) const { return clampv(x, -1.0, 1.0); }
};
struct Square
{
    double operator()(double x) const { return x * x; }
};
struct Cube
{
    double operator()(double x) const { return x * x * x; }
};
struct Log
{
    double operator()(double x) const { return logCore(x); }
};
struct Exp
{
    double operator()(double x) const
    {
        return expCore(clampv(x, -60.0, 60.0));
    }
};
struct Hat
{
    double operator()(double x) const
    {
        return std::max(0.0, 1.0 - std::fabs(x));
    }
};
struct Inv
{
    double operator()(double x) const
    {
        // Compiles to a compare + blend: still branch-free.
        return std::fabs(x) < 1e-7 ? 0.0 : 1.0 / x;
    }
};
struct Softplus
{
    double operator()(double x) const
    {
        return 0.2 *
               logCore(1.0 + expCore(clampv(5.0 * x, -60.0, 60.0)));
    }
};

/** Hw activation + Limit & Quantize for one node value. */
inline double
activateQuantized(neat::Activation a, double x,
                  const FixedPointQuantizer &q)
{
    switch (a) {
      case neat::Activation::Sigmoid:
        return q(Sigmoid{}(x));
      case neat::Activation::Tanh:
        return q(Tanh{}(x));
      case neat::Activation::ReLU:
        return q(ReLU{}(x));
      case neat::Activation::Identity:
        return q(Identity{}(x));
      case neat::Activation::Sin:
        return q(Sin{}(x));
      case neat::Activation::Gauss:
        return q(Gauss{}(x));
      case neat::Activation::Abs:
        return q(Abs{}(x));
      case neat::Activation::Clamped:
        return q(Clamped{}(x));
      case neat::Activation::Square:
        return q(Square{}(x));
      case neat::Activation::Cube:
        return q(Cube{}(x));
      case neat::Activation::Log:
        return q(Log{}(x));
      case neat::Activation::Exp:
        return q(Exp{}(x));
      case neat::Activation::Hat:
        return q(Hat{}(x));
      case neat::Activation::Inv:
        return q(Inv{}(x));
      default:
        return q(Softplus{}(x));
    }
}

} // namespace genesys::nn::hwact

#endif // GENESYS_NN_HW_ACTIVATIONS_HH
