/**
 * @file
 * The executor hook through which NEAT's generation-barrier phases
 * (breeding, speciation distances) fan out across workers — the
 * software counterpart of EvE's PE array, where every PE builds one
 * child at a time. NEAT itself owns no threads: core::System installs
 * an executor backed by the evaluation engine's pool, and without one
 * every phase runs as a plain loop on the calling thread.
 */

#ifndef GENESYS_NEAT_EXECUTOR_HH
#define GENESYS_NEAT_EXECUTOR_HH

#include <cstddef>
#include <functional>

namespace genesys::neat
{

/**
 * Runs `body(i)` once for every i in [0, count) and returns when all
 * calls are done, in any order and on any threads. Each body writes
 * only its own slot, so results never depend on the executor. An
 * empty Executor means a plain serial loop (see forEachIndex).
 */
using Executor = std::function<void(
    std::size_t count, const std::function<void(std::size_t)> &body)>;

/** Run `body` over [0, count) on `exec`, or inline when it is unset. */
inline void
forEachIndex(const Executor &exec, std::size_t count,
             const std::function<void(std::size_t)> &body)
{
    if (exec) {
        exec(count, body);
        return;
    }
    for (std::size_t i = 0; i < count; ++i)
        body(i);
}

} // namespace genesys::neat

#endif // GENESYS_NEAT_EXECUTOR_HH
