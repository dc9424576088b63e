/**
 * @file
 * Numerics tiers: which arithmetic a compiled plan executes.
 *
 * The GeneSys hardware runs Q-format fixed-point end to end (the gene
 * format stores Q6.10 attributes, Fig 6, and the EvE Perturbation
 * Engine saturates and quantizes every value it produces — the
 * "Limit & Quantize" stage, Fig 7). The software evaluator's default
 * tier is double-precision float: the bit-identical golden reference
 * every differential suite and committed digest is pinned to.
 *
 * The opt-in HwFaithful tier mirrors the hardware instead:
 * CompiledPlan lowers weights/bias/response through the Q6.10 codec
 * at compile time, node activations run branch-free polynomial/
 * rational approximations (nn/hw_activations.hh) instead of libm,
 * and every node output is saturated-and-quantized back to the Q6.10
 * grid, with no libm call in the hot loop. The tier is deterministic
 * (bit-identical across thread counts, execution modes and
 * checkpoint/resume — it has its own golden digests) but
 * intentionally NOT bit-identical to Reference.
 * tests/test_numerics_divergence.cc bounds the float-vs-hw fitness
 * divergence per environment.
 */

#ifndef GENESYS_NN_NUMERICS_HH
#define GENESYS_NN_NUMERICS_HH

#include <cstdint>
#include <string>

namespace genesys::nn
{

/** Which arithmetic a compiled plan executes. */
enum class NumericsTier : uint8_t
{
    /** IEEE double + libm activations: the golden reference. */
    Reference = 0,
    /** Q6.10 quantized attributes + approximated activations. */
    HwFaithful = 1,
};

/** Human-readable tier name ("reference" / "hw"). */
const std::string &numericsTierName(NumericsTier tier);

/**
 * Integer/fractional bit split of the hardware attribute format: the
 * Q6.10 gene fields (the paper-model hw::GeneCodec in genesys_paper,
 * bench/paper/hw/gene_encoding.hh, uses the same split). The
 * HwFaithful lowering quantizes through FixedPointCodec(kHwIntBits,
 * kHwFracBits) so software numerics and the gene wire format agree.
 */
inline constexpr int kHwIntBits = 6;
inline constexpr int kHwFracBits = 10;

} // namespace genesys::nn

#endif // GENESYS_NN_NUMERICS_HH
