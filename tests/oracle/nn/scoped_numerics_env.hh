/**
 * @file
 * Pin GENESYS_NUMERICS for one scope, restoring the previous state
 * after. core::System applies the variable after SystemConfig, and the
 * CI matrix exports it suite-wide, so a test that runs a System under
 * a chosen tier must pin the variable too, or the ambient override
 * would collapse every run onto one tier. Pinning through the variable
 * rather than only SystemConfig also keeps the hook itself tested.
 */

#ifndef GENESYS_ORACLE_NN_SCOPED_NUMERICS_ENV_HH
#define GENESYS_ORACLE_NN_SCOPED_NUMERICS_ENV_HH

#include <cstdlib>
#include <string>

#include "nn/numerics.hh"

namespace genesys::oracle
{

class ScopedNumericsEnv
{
  public:
    /** Pin the variable to `value` ("reference", "hw", ...). */
    explicit ScopedNumericsEnv(const std::string &value)
    {
        const char *prev = std::getenv("GENESYS_NUMERICS");
        had_ = prev != nullptr;
        if (had_)
            prev_ = prev;
        setenv("GENESYS_NUMERICS", value.c_str(), 1);
    }

    explicit ScopedNumericsEnv(nn::NumericsTier tier)
        : ScopedNumericsEnv(nn::numericsTierName(tier))
    {
    }

    ScopedNumericsEnv(const ScopedNumericsEnv &) = delete;
    ScopedNumericsEnv &operator=(const ScopedNumericsEnv &) = delete;

    ~ScopedNumericsEnv()
    {
        if (had_)
            setenv("GENESYS_NUMERICS", prev_.c_str(), 1);
        else
            unsetenv("GENESYS_NUMERICS");
    }

  private:
    bool had_ = false;
    std::string prev_;
};

} // namespace genesys::oracle

#endif // GENESYS_ORACLE_NN_SCOPED_NUMERICS_ENV_HH
