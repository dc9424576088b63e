#include "env/reference_eval.hh"

#include <bit>
#include <type_traits>

#include "nn/recurrent.hh"

namespace genesys::oracle
{

namespace
{

/**
 * The serial episode loop, parameterized over the policy: reset `env`
 * from `seed`, then step it with the action decoded from `act(obs)`
 * (the policy's outputs for one observation) until the episode ends.
 */
template <typename ActFn>
env::EpisodeResult
runEpisodeWith(env::Environment &env, uint64_t seed, long macs_per_step,
               ActFn &&act)
{
    env::EpisodeResult result;
    const env::ActionSpace space = env.actionSpace();

    std::vector<double> obs(static_cast<size_t>(env.observationSize()));
    env::Action action;
    env.resetInto(seed, obs);
    bool done = false;
    while (!done) {
        const std::vector<double> &outputs = act(obs);
        env::decodeActionInto(space, outputs, action);
        done = env.stepInto(action, obs).done;
    }
    result.cumulativeReward = env.cumulativeReward();
    result.fitness = env.episodeFitness();
    result.steps = env.stepsTaken();
    result.inferences = result.steps; // one forward pass per step
    result.macs = macs_per_step * result.inferences;
    return result;
}

/** Run `episode(seed)` for every seed in order, then reduce. */
template <typename EpisodeFn>
DetailedEval
evaluateDetailedWith(const std::vector<uint64_t> &episodeSeeds,
                     EpisodeFn &&episode)
{
    std::vector<env::EpisodeResult> episodes;
    episodes.reserve(episodeSeeds.size());
    for (uint64_t seed : episodeSeeds)
        episodes.push_back(episode(seed));
    // Braced initializers run in order: reduce, then move.
    return {env::reduceEpisodes(episodes), std::move(episodes)};
}

template <typename Net>
DetailedEval
evaluateWith(env::Environment &env, Net &net,
             const std::vector<uint64_t> &episodeSeeds)
{
    return evaluateDetailedWith(episodeSeeds, [&](uint64_t seed) {
        if constexpr (std::is_same_v<Net, nn::RecurrentNetwork>)
            net.reset(); // episodes never share recurrent state
        return runEpisodeWith(env, seed, net.macsPerInference(),
                              [&net](const std::vector<double> &obs) {
                                  return net.activate(obs);
                              });
    });
}

} // namespace

env::EpisodeResult
runEpisode(env::Environment &env, const nn::CompiledPlan &plan,
           nn::PlanScratch &scratch, uint64_t seed)
{
    plan.reset(scratch); // clears recurrent state; no-op feed-forward
    return runEpisodeWith(
        env, seed, plan.macsPerInference(),
        [&plan, &scratch](const std::vector<double> &obs)
            -> const std::vector<double> & {
            plan.activate(obs, scratch);
            return scratch.outputs;
        });
}

DetailedEval
evaluateDetailed(env::Environment &env, const nn::CompiledPlan &plan,
                 const std::vector<uint64_t> &episodeSeeds)
{
    nn::PlanScratch scratch; // warmed once, reused by every episode
    return evaluateDetailedWith(episodeSeeds, [&](uint64_t seed) {
        return runEpisode(env, plan, scratch, seed);
    });
}

DetailedEval
evaluateDetailed(env::Environment &env, const neat::Genome &genome,
                 const neat::NeatConfig &cfg,
                 const std::vector<uint64_t> &episodeSeeds,
                 nn::NumericsTier tier)
{
    if (!cfg.feedForward) {
        auto net = nn::RecurrentNetwork::create(genome, cfg, tier);
        return evaluateWith(env, net, episodeSeeds);
    }
    auto net = nn::FeedForwardNetwork::create(genome, cfg, tier);
    return evaluateWith(env, net, episodeSeeds);
}

std::vector<env::EpisodeResult>
serialEpisodes(env::Environment &env, std::span<const env::WaveItem> items)
{
    nn::PlanScratch scratch;
    std::vector<env::EpisodeResult> out;
    out.reserve(items.size());
    for (const env::WaveItem &item : items)
        out.push_back(runEpisode(env, *item.plan, scratch, item.seed));
    return out;
}

DetailedEval
serialDetail(const std::string &envName, const neat::NeatConfig &cfg,
             const neat::GenomeHandle &genome, int episodes,
             const exec::EvalEngine::SeedFn &seedFor, nn::NumericsTier tier)
{
    const auto plan = nn::CompiledPlan::compileFor(*genome.genome, cfg, tier);
    std::vector<uint64_t> seeds;
    for (int e = 0; e < episodes; ++e)
        seeds.push_back(seedFor(genome.key, e));
    auto env = env::makeEnvironment(envName);
    return evaluateDetailed(*env, plan, seeds);
}

std::vector<DetailedEval>
serialDetails(const std::string &envName, const neat::NeatConfig &cfg,
              const std::vector<neat::GenomeHandle> &batch, int episodes,
              const exec::EvalEngine::SeedFn &seedFor, nn::NumericsTier tier)
{
    std::vector<DetailedEval> out;
    out.reserve(batch.size());
    for (const neat::GenomeHandle &h : batch)
        out.push_back(serialDetail(envName, cfg, h, episodes, seedFor, tier));
    return out;
}

bool
identical(const env::EpisodeResult &a, const env::EpisodeResult &b)
{
    return std::bit_cast<uint64_t>(a.fitness) ==
               std::bit_cast<uint64_t>(b.fitness) &&
           std::bit_cast<uint64_t>(a.cumulativeReward) ==
               std::bit_cast<uint64_t>(b.cumulativeReward) &&
           a.steps == b.steps && a.inferences == b.inferences &&
           a.macs == b.macs;
}

std::vector<DetailedEval>
engineDetails(const exec::EvalEngine &engine,
              const std::vector<exec::GenomeEvalResult> &results)
{
    const auto E = static_cast<std::size_t>(engine.episodes());
    const auto slots = engine.episodeResults();
    std::vector<DetailedEval> out;
    out.reserve(results.size());
    for (std::size_t g = 0; g < results.size(); ++g) {
        const auto mine = slots.subspan(g * E, E);
        out.push_back({results[g].detail, {mine.begin(), mine.end()}});
    }
    return out;
}

} // namespace genesys::oracle
