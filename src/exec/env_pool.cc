#include "exec/env_pool.hh"

#include "common/logging.hh"
#include "env/runner.hh"

namespace genesys::exec
{

EnvPool::EnvPool(const std::string &envName, int workers,
                 int lanesPerWorker)
    : lanes_(lanesPerWorker)
{
    GENESYS_ASSERT(workers > 0, "EnvPool needs at least one worker");
    GENESYS_ASSERT(lanesPerWorker > 0,
                   "EnvPool needs at least one lane per worker");
    envs_.reserve(static_cast<std::size_t>(workers) *
                  static_cast<std::size_t>(lanesPerWorker));
    shards_.resize(static_cast<std::size_t>(workers));
    for (auto &shard : shards_) {
        shard.reserve(static_cast<std::size_t>(lanesPerWorker));
        for (int l = 0; l < lanesPerWorker; ++l) {
            envs_.push_back(env::makeEnvironment(envName));
            shard.push_back(envs_.back().get());
        }
    }
}

const std::vector<env::Environment *> &
EnvPool::shard(int worker) const
{
    GENESYS_ASSERT(worker >= 0 &&
                       worker < static_cast<int>(shards_.size()),
                   "EnvPool worker " << worker << " out of range");
    return shards_[static_cast<std::size_t>(worker)];
}

} // namespace genesys::exec
