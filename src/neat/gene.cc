#include "neat/gene.hh"

namespace genesys::neat
{

NodeGene
NodeGene::createNew(int key, const NeatConfig &cfg, XorWow &rng)
{
    NodeGene g;
    g.key = key;
    g.bias = cfg.bias.initValue(rng);
    g.response = cfg.response.initValue(rng);
    g.activation = cfg.activation.initValue(rng);
    g.aggregation = cfg.aggregation.initValue(rng);
    return g;
}

ConnectionGene
ConnectionGene::createNew(ConnKey key, const NeatConfig &cfg, XorWow &rng)
{
    ConnectionGene g;
    g.key = key;
    g.weight = cfg.weight.initValue(rng);
    g.enabled = cfg.enabled.initValue(rng);
    return g;
}

} // namespace genesys::neat
