/**
 * @file
 * Debug invariant checks, compiled out of release builds.
 *
 * GENESYS_ASSERT (logging.hh) guards cheap, always-on contracts.
 * GENESYS_DCHECK guards the expensive ones — full-structure walks
 * that would tax the steady-state path. They exist only when the
 * GENESYS_CHECKED CMake option defines the macro of the same name, and
 * a checked build always runs them.
 *
 * Checks must never alter observable behavior: a checked build that
 * passes must produce bit-identical golden digests to a release
 * build.
 */

#ifndef GENESYS_COMMON_CHECK_HH
#define GENESYS_COMMON_CHECK_HH

#include <sstream>

#include "common/logging.hh"

namespace genesys
{

/** True when this binary was built with GENESYS_CHECKED=ON. */
constexpr bool
checkedBuild()
{
#ifdef GENESYS_CHECKED
    return true;
#else
    return false;
#endif
}

// GCC signals sanitizers via __SANITIZE_*__; clang via __has_feature.
#ifdef __has_feature
#define GENESYS_HAS_FEATURE(x) __has_feature(x)
#else
#define GENESYS_HAS_FEATURE(x) 0
#endif

/**
 * Which sanitizer this binary was compiled under ("address",
 * "thread", or "none") — for startup banners, so a log is
 * self-identifying.
 */
constexpr const char *
sanitizerName()
{
#if defined(__SANITIZE_THREAD__) || GENESYS_HAS_FEATURE(thread_sanitizer)
    return "thread";
#elif defined(__SANITIZE_ADDRESS__) ||                                     \
    GENESYS_HAS_FEATURE(address_sanitizer)
    return "address";
#else
    return "none";
#endif
}

#ifdef GENESYS_CHECKED

/** Check an invariant; msg may be an ostream chain. */
#define GENESYS_DCHECK(cond, msg)                                          \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::ostringstream _gsy_oss;                                   \
            _gsy_oss << "dcheck failed: " #cond ": " << msg;               \
            ::genesys::panic(_gsy_oss.str());                              \
        }                                                                  \
    } while (0)

#else // !GENESYS_CHECKED

// Compiled out: the unevaluated sizeof keeps operands "used" so a
// variable referenced only by a DCHECK does not warn under -Werror.
#define GENESYS_DCHECK(cond, msg)                                          \
    do {                                                                   \
        (void)sizeof((cond) ? 1 : 0);                                      \
    } while (0)

#endif // GENESYS_CHECKED

} // namespace genesys

#endif // GENESYS_COMMON_CHECK_HH
