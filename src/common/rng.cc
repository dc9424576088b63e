#include "common/rng.hh"

#include "common/logging.hh"

namespace genesys
{

uint64_t
splitMix64(uint64_t &state)
{
    state += 0x9E3779B97F4A7C15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

uint64_t
deriveSeed(uint64_t base, uint64_t stream)
{
    uint64_t s = base ^ (0xA24BAED4963EE407ULL + stream * 0x9FB21C651E98DF25ULL);
    return splitMix64(s);
}

XorWow::XorWow(uint64_t seed)
{
    reseed(seed);
}

void
XorWow::reseed(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &w : state_) {
        w = static_cast<uint32_t>(splitMix64(sm) >> 16);
        // XOR-WOW state must not be all zero; the SplitMix expansion
        // makes that astronomically unlikely, but guard anyway.
        if (w == 0)
            w = 0x6C078965;
    }
    weyl_ = static_cast<uint32_t>(splitMix64(sm));
    hasCachedGaussian_ = false;
    skippedPair_ = false;
    wordPending_ = false;
    cachedGaussian_ = 0.0;
    pendingU1_ = 0.0;
}

double
XorWow::sineVariate(double u1, double u2)
{
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    return r * std::sin(theta);
}

XorWowState
XorWow::saveState() const
{
    XorWowState s;
    for (int i = 0; i < 5; ++i)
        s.state[i] = state_[i];
    s.weyl = weyl_;
    s.hasCachedGaussian = hasCachedGaussian_ || skippedPair_;
    s.cachedGaussian = wordPending_ ? sineVariate(pendingU1_, cachedGaussian_)
                                    : cachedGaussian_;
    return s;
}

void
XorWow::loadState(const XorWowState &s)
{
    for (int i = 0; i < 5; ++i)
        state_[i] = s.state[i];
    weyl_ = s.weyl;
    hasCachedGaussian_ = s.hasCachedGaussian;
    skippedPair_ = false;
    wordPending_ = false;
    cachedGaussian_ = s.cachedGaussian;
}

void
XorWow::emptyRange()
{
    fatal("XorWow::uniformInt(0): empty range "
          "(choiceIndex on an empty container?)");
}

int
XorWow::uniformInt(int lo, int hi)
{
    return lo + static_cast<int>(
        uniformInt(static_cast<uint32_t>(hi - lo + 1)));
}

} // namespace genesys
