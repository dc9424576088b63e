#include "env/eval_fixtures.hh"

#include "common/rng.hh"

namespace genesys::oracle
{

GenomeSet
growGenomes(const neat::NeatConfig &cfg, int count, uint64_t seed,
            int mutations)
{
    GenomeSet set{cfg, {}};
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(seed);
    set.genomes.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
        auto g = neat::Genome::createNew(i, cfg, idx, rng);
        for (int m = 0; m < mutations; ++m)
            g.mutate(cfg, idx, rng);
        set.genomes.push_back(std::move(g));
    }
    return set;
}

neat::Genome
grownGenome(const neat::NeatConfig &cfg, int mutations, uint64_t seed)
{
    return std::move(growGenomes(cfg, 1, seed, mutations).genomes[0]);
}

neat::Genome
denseGenome(const neat::NeatConfig &cfg, int hidden, uint64_t seed)
{
    XorWow rng(seed);
    neat::Genome g(0);
    auto node = [&](int key) {
        neat::NodeGene n;
        n.key = key;
        n.bias = rng.gaussian();
        g.mutableNodes().emplace(key, n);
    };
    auto link = [&](int src, int dst) {
        neat::ConnectionGene c;
        c.key = {src, dst};
        c.weight = rng.gaussian();
        g.mutableConnections().emplace(c.key, c);
    };
    for (int o = 0; o < cfg.numOutputs; ++o)
        node(o);
    for (int h = 0; h < hidden; ++h) {
        const int key = cfg.numOutputs + h;
        node(key);
        for (int i = 0; i < cfg.numInputs; ++i)
            link(-i - 1, key);
        for (int o = 0; o < cfg.numOutputs; ++o)
            link(key, o);
    }
    return g;
}

GenomeSet
makeGenomes(int count, uint64_t seed, bool feedForward)
{
    const auto env = env::makeEnvironment("CartPole_v0");
    neat::NeatConfig cfg = env::configForEnvironment(*env);
    cfg.populationSize = count;
    cfg.feedForward = feedForward;
    cfg.weight.initStdev = 1.0;
    return growGenomes(cfg, count, seed, 10);
}

exec::EvalEngine::SeedFn
perGenomeSeeds(uint64_t base)
{
    return [base](int genomeKey, int episode) {
        return deriveSeed(deriveSeed(base, static_cast<uint64_t>(genomeKey)),
                          static_cast<uint64_t>(episode));
    };
}

std::vector<neat::GenomeHandle>
handlesOf(const std::vector<neat::Genome> &genomes)
{
    std::vector<neat::GenomeHandle> hs;
    hs.reserve(genomes.size());
    for (size_t i = 0; i < genomes.size(); ++i)
        hs.push_back({static_cast<int>(i), &genomes[i]});
    return hs;
}

Lanes
makeLanes(const std::string &envName, int width)
{
    Lanes l;
    for (int i = 0; i < width; ++i) {
        l.owned.push_back(env::makeEnvironment(envName));
        l.lanes.push_back(l.owned.back().get());
    }
    return l;
}

EngineRun
evaluate(exec::EvalEngine &engine,
         const std::vector<neat::GenomeHandle> &batch,
         const neat::NeatConfig &cfg,
         const exec::EvalEngine::SeedFn &seedFor)
{
    EngineRun run;
    run.results = engine.evaluateGeneration(batch, cfg, seedFor);
    run.details = engineDetails(engine, run.results);
    return run;
}

} // namespace genesys::oracle
