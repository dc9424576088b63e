#include "env/reference_eval.hh"

#include <type_traits>

#include "nn/recurrent.hh"

namespace genesys::oracle
{

namespace
{

template <typename Net>
env::EvalDetail
evaluateWith(env::Environment &env, Net &net,
             const std::vector<uint64_t> &episodeSeeds)
{
    return env::detail::evaluateDetailedWith(
        episodeSeeds, [&](uint64_t seed) {
            if constexpr (std::is_same_v<Net, nn::RecurrentNetwork>)
                net.reset(); // episodes never share recurrent state
            return env::detail::runEpisodeWith(
                env, seed, net.macsPerInference(),
                [&net](const std::vector<double> &obs) {
                    return net.activate(obs);
                });
        });
}

} // namespace

env::EvalDetail
evaluateDetailed(env::Environment &env, const neat::Genome &genome,
                 const neat::NeatConfig &cfg,
                 const std::vector<uint64_t> &episodeSeeds)
{
    if (!cfg.feedForward) {
        auto net = nn::RecurrentNetwork::create(genome, cfg);
        return evaluateWith(env, net, episodeSeeds);
    }
    auto net = nn::FeedForwardNetwork::create(genome, cfg);
    return evaluateWith(env, net, episodeSeeds);
}

} // namespace genesys::oracle
