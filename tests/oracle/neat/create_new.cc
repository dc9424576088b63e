#include "neat/create_new.hh"

#include <algorithm>
#include <utility>
#include <vector>

namespace genesys::neat::oracle
{

namespace
{

/** FloatAttributeSpec::initValue with the variate always drawn. */
double
initFloat(const FloatAttributeSpec &spec, XorWow &rng)
{
    return spec.clamp(spec.initMean + spec.initStdev * rng.gaussian());
}

NodeGene
createNode(int key, const NeatConfig &cfg, XorWow &rng)
{
    NodeGene g;
    g.key = key;
    g.bias = initFloat(cfg.bias, rng);
    g.response = initFloat(cfg.response, rng);
    g.activation = cfg.activation.initValue(rng);
    g.aggregation = cfg.aggregation.initValue(rng);
    return g;
}

ConnectionGene
createConnection(ConnKey key, const NeatConfig &cfg, XorWow &rng)
{
    ConnectionGene g;
    g.key = key;
    g.weight = initFloat(cfg.weight, rng);
    g.enabled = cfg.enabled.initValue(rng);
    return g;
}

} // namespace

Genome
createNew(int key, const NeatConfig &cfg, NodeIndexer &indexer, XorWow &rng)
{
    Genome g(key);
    const std::vector<int> inputs = Genome::inputKeys(cfg);
    const std::vector<int> outputs = Genome::outputKeys(cfg);
    for (int out : outputs) {
        g.mutableNodes().emplace(out, createNode(out, cfg, rng));
        indexer.bump(out);
    }
    std::vector<int> hidden;
    for (int i = 0; i < cfg.numHidden; ++i) {
        const int nk = indexer.next();
        hidden.push_back(nk);
        g.mutableNodes().emplace(nk, createNode(nk, cfg, rng));
    }

    std::vector<std::pair<ConnKey, ConnectionGene>> drawn;
    auto add_conn = [&](int src, int dst) {
        const ConnKey ck{src, dst};
        drawn.emplace_back(ck, createConnection(ck, cfg, rng));
    };
    for (int in : inputs) {
        for (int out : outputs)
            add_conn(in, out);
    }
    for (int h : hidden) {
        for (int in : inputs)
            add_conn(in, h);
        for (int out : outputs)
            add_conn(h, out);
    }
    std::sort(drawn.begin(), drawn.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    for (auto &[ck, cg] : drawn)
        g.mutableConnections().emplace(ck, cg);
    return g;
}

} // namespace genesys::neat::oracle
