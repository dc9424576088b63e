/**
 * @file
 * Gene attribute specifications: how each attribute of a gene is
 * initialized and mutated. Mirrors neat-python's FloatAttribute /
 * BoolAttribute / StringAttribute machinery, which is what the EvE
 * Perturbation Engine implements in hardware (Fig 7: compare random
 * against the perturbation probability, add a bounded delta, then
 * "Limit & Quantize").
 */

#ifndef GENESYS_NEAT_ATTRIBUTES_HH
#define GENESYS_NEAT_ATTRIBUTES_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/rng.hh"

namespace genesys::neat
{

/**
 * `take_a ? a : b`, picked through a bit mask instead of a branch. The
 * gene loops select on random draws, and a branch on a random bit
 * mispredicts half the time. Copies the chosen value's bits exactly
 * (NaN payloads and signed zeros included).
 */
template <typename T>
T
maskSelect(bool take_a, T a, T b)
{
    using Bits = std::conditional_t<
        sizeof(T) == 8, uint64_t,
        std::conditional_t<sizeof(T) == 4, uint32_t,
                           std::conditional_t<sizeof(T) == 2, uint16_t,
                                              uint8_t>>>;
    static_assert(sizeof(T) == sizeof(Bits));
    const Bits mask = static_cast<Bits>(Bits{0} - Bits{take_a});
    return std::bit_cast<T>(
        static_cast<Bits>((std::bit_cast<Bits>(a) & mask) |
                          (std::bit_cast<Bits>(b) & Bits(~mask))));
}

/**
 * Specification for a float-valued gene attribute (weight, bias,
 * response).
 */
struct FloatAttributeSpec
{
    double initMean = 0.0;
    double initStdev = 1.0;
    double minValue = -30.0;
    double maxValue = 30.0;
    /** Stdev of the gaussian perturbation applied on mutation. */
    double mutatePower = 0.5;
    /** Probability that a mutation perturbs the value. */
    double mutateRate = 0.8;
    /** Probability that a mutation replaces the value entirely. */
    double replaceRate = 0.1;

    /** Draw an initial value (clamped gaussian). */
    double
    initValue(XorWow &rng) const
    {
        return clamp(rng.gaussian(initMean, initStdev));
    }

    /** Clamp into [minValue, maxValue]. */
    double
    clamp(double v) const
    {
        return std::clamp(v, minValue, maxValue);
    }

    /**
     * Mutate a value: with probability mutateRate perturb by
     * N(0, mutatePower); else with probability replaceRate re-init;
     * else leave unchanged. Returns the new value.
     *
     * Both outcomes that change the value draw one gaussian, so the
     * only branch is on whether to draw it. The max() makes that test
     * `r < mutateRate || r < mutateRate + replaceRate` for any rates,
     * negative or NaN ones included.
     */
    double
    mutateValue(double v, XorWow &rng) const
    {
        const double r = rng.uniform();
        if (!(r < std::max(mutateRate, mutateRate + replaceRate)))
            return v;
        const double g = rng.gaussian();
        return clamp(maskSelect(r < mutateRate, v + (0.0 + mutatePower * g),
                                initMean + initStdev * g));
    }
};

/** Specification for a boolean gene attribute (connection enable). */
struct BoolAttributeSpec
{
    bool defaultValue = true;
    /** Probability that a mutation re-randomizes the flag. */
    double mutateRate = 0.01;

    bool initValue(XorWow &) const { return defaultValue; }

    bool
    mutateValue(bool v, XorWow &rng) const
    {
        if (mutateRate > 0 && rng.bernoulli(mutateRate)) {
            // neat-python re-randomizes rather than flips.
            return rng.bernoulli(0.5);
        }
        return v;
    }
};

/**
 * Specification for an enumerated gene attribute (activation,
 * aggregation), templated on the enum type.
 */
template <typename Enum>
struct EnumAttributeSpec
{
    Enum defaultValue{};
    std::vector<Enum> options{};
    double mutateRate = 0.0;

    Enum
    initValue(XorWow &rng) const
    {
        if (options.size() > 1)
            return options[rng.choiceIndex(options)];
        return options.empty() ? defaultValue : options.front();
    }

    Enum
    mutateValue(Enum v, XorWow &rng) const
    {
        if (mutateRate > 0 && options.size() > 1 &&
            rng.bernoulli(mutateRate)) {
            return options[rng.choiceIndex(options)];
        }
        return v;
    }
};

} // namespace genesys::neat

#endif // GENESYS_NEAT_ATTRIBUTES_HH
