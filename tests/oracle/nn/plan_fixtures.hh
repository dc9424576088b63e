/**
 * @file
 * Configs and genomes the plan and interpreter suites and
 * bench_micro_kernels share.
 */

#ifndef GENESYS_ORACLE_NN_PLAN_FIXTURES_HH
#define GENESYS_ORACLE_NN_PLAN_FIXTURES_HH

#include "common/rng.hh"
#include "neat/activations.hh"
#include "neat/config.hh"
#include "neat/genome.hh"

namespace genesys::oracle
{

/**
 * A config with every activation and aggregation in play, its shape
 * drawn from `rng`: 1-6 inputs, 1-4 outputs, 0-2 hidden nodes, full
 * direct wiring. Enable flips are far more frequent than the
 * default's, and weights and responses vary (the default response is
 * exactly 1.0 on every node), so a lowering that mistreats any of
 * them diverges from the interpreter. Mutation may grow cycles unless
 * `feedForward`.
 */
inline neat::NeatConfig
planFuzzConfig(XorWow &rng, bool feedForward)
{
    neat::NeatConfig cfg;
    cfg.numInputs = rng.uniformInt(1, 6);
    cfg.numOutputs = rng.uniformInt(1, 4);
    cfg.numHidden = rng.uniformInt(0, 2);
    cfg.feedForward = feedForward;
    cfg.activation.options = neat::allActivations();
    cfg.activation.mutateRate = 0.5;
    cfg.aggregation.options = {
        neat::Aggregation::Sum,    neat::Aggregation::Product,
        neat::Aggregation::Max,    neat::Aggregation::Min,
        neat::Aggregation::Mean,   neat::Aggregation::Median,
        neat::Aggregation::MaxAbs,
    };
    cfg.aggregation.mutateRate = 0.5;
    cfg.enabled.mutateRate = 0.2;
    cfg.weight.initStdev = 2.0;
    cfg.response.initStdev = 0.5;
    cfg.response.mutatePower = 0.5;
    cfg.response.mutateRate = 0.5;
    return cfg;
}

/** The default config with `inputs` inputs and `outputs` outputs. */
inline neat::NeatConfig
ioConfig(int inputs, int outputs)
{
    neat::NeatConfig cfg;
    cfg.numInputs = inputs;
    cfg.numOutputs = outputs;
    return cfg;
}

/** ioConfig, recurrent. */
inline neat::NeatConfig
recConfig(int inputs = 1, int outputs = 1)
{
    neat::NeatConfig cfg = ioConfig(inputs, outputs);
    cfg.feedForward = false;
    return cfg;
}

/** Output node 0 with a self-loop of weight w plus input -1. */
inline neat::Genome
selfLoopGenome(double w_self, double w_in)
{
    neat::Genome g(0);
    neat::NodeGene out;
    out.key = 0;
    out.activation = neat::Activation::Identity;
    g.mutableNodes().emplace(0, out);
    neat::ConnectionGene self;
    self.key = {0, 0};
    self.weight = w_self;
    neat::ConnectionGene in;
    in.key = {-1, 0};
    in.weight = w_in;
    g.mutableConnections().emplace(self.key, self);
    g.mutableConnections().emplace(in.key, in);
    return g;
}

} // namespace genesys::oracle

#endif // GENESYS_ORACLE_NN_PLAN_FIXTURES_HH
