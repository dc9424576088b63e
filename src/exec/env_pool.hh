/**
 * @file
 * Per-worker shard of environment instances — the "n Environment
 * Instances" of Fig 6, one group per evaluation worker. Each worker
 * owns its environments outright, so the episode hot loop (reset /
 * step / activate) never takes a lock, and because every environment
 * is fully re-initialized by reset(seed), results depend only on the
 * episode seed, never on which shard ran the episode.
 *
 * A shard holds `lanesPerWorker` instances so a worker can step
 * episodes in BSP lockstep waves (env::evaluateWave) — one
 * environment per concurrent episode lane, mirroring the paper's
 * PE-array wave execution. Lanes may hold episodes of the same or of
 * *different* genomes, and each lane environment persists across
 * refills — a freed lane's instance is simply reset(seed) for the
 * next pending episode, so shard ownership never churns mid-wave.
 */

#ifndef GENESYS_EXEC_ENV_POOL_HH
#define GENESYS_EXEC_ENV_POOL_HH

#include <memory>
#include <string>
#include <vector>

#include "env/env.hh"

namespace genesys::exec
{

/** A fixed set of independent environment instances, sharded per worker. */
class EnvPool
{
  public:
    /**
     * Build `workers` shards of the named Table I environment, each
     * shard holding `lanesPerWorker` instances (1 = one episode at a
     * time).
     */
    EnvPool(const std::string &envName, int workers,
            int lanesPerWorker = 1);

    EnvPool(const EnvPool &) = delete;
    EnvPool &operator=(const EnvPool &) = delete;

    /** Worker shards. */
    int size() const { return static_cast<int>(shards_.size()); }
    /** Episode lanes (environment instances) per worker shard. */
    int lanesPerWorker() const { return lanes_; }

    /**
     * All of `worker`'s episode-lane environments, in lane order —
     * the argument env::evaluateWave wants. Valid for [0, size()).
     */
    const std::vector<env::Environment *> &shard(int worker) const;

  private:
    std::vector<std::unique_ptr<env::Environment>> envs_;
    /** Borrowed per-worker views into envs_, lanes_ entries each. */
    std::vector<std::vector<env::Environment *>> shards_;
    int lanes_ = 1;
};

} // namespace genesys::exec

#endif // GENESYS_EXEC_ENV_POOL_HH
