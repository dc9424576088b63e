#include "nn/numerics.hh"

#include <array>

#include "common/logging.hh"

namespace genesys::nn
{

namespace
{

const std::array<std::string, 2> tierNames = {"reference", "hw"};

} // namespace

const std::string &
numericsTierName(NumericsTier tier)
{
    const auto idx = static_cast<size_t>(tier);
    GENESYS_ASSERT(idx < tierNames.size(), "bad numerics tier value");
    return tierNames[idx];
}

} // namespace genesys::nn
