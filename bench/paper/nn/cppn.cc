#include "nn/cppn.hh"

#include <cmath>

#include "common/logging.hh"
#include "nn/compiled_plan.hh"

namespace genesys::nn
{

int
SubstrateConfig::phenotypeNodes() const
{
    int n = outputs;
    for (int h : hiddenLayers)
        n += h;
    return n;
}

long
SubstrateConfig::densePotentialConnections() const
{
    long total = 0;
    int prev = inputs;
    for (int h : hiddenLayers) {
        total += static_cast<long>(prev) * h;
        prev = h;
    }
    total += static_cast<long>(prev) * outputs;
    return total;
}

NeatConfig
cppnNeatConfig()
{
    NeatConfig cfg;
    cfg.numInputs = 4; // x1, y1, x2, y2
    cfg.numOutputs = 1;
    // CPPNs need expressive weights from the start.
    cfg.weight.initMean = 0.0;
    cfg.weight.initStdev = 1.0;
    // The geometric activation palette; mutation may swap freely.
    cfg.activation.defaultValue = Activation::Tanh;
    cfg.activation.options = {Activation::Tanh, Activation::Sin,
                              Activation::Gauss, Activation::Sigmoid,
                              Activation::Abs, Activation::Identity};
    cfg.activation.mutateRate = 0.3;
    cfg.nodeAddProb = 0.3;
    cfg.connAddProb = 0.4;
    cfg.nodeDeleteProb = 0.1;
    cfg.connDeleteProb = 0.2;
    return cfg;
}

SubstrateLayout
substrateLayout(const SubstrateConfig &sub)
{
    SubstrateLayout layout;
    auto sheet = [](int count, double y) {
        std::vector<std::pair<double, double>> nodes;
        nodes.reserve(static_cast<size_t>(count));
        for (int i = 0; i < count; ++i) {
            const double x =
                count > 1 ? -1.0 + 2.0 * i / (count - 1) : 0.0;
            nodes.emplace_back(x, y);
        }
        return nodes;
    };

    const int depth = static_cast<int>(sub.hiddenLayers.size()) + 2;
    int level = 0;
    auto level_y = [&](int l) {
        return depth > 1 ? -1.0 + 2.0 * l / (depth - 1) : 0.0;
    };
    layout.layers.push_back(sheet(sub.inputs, level_y(level++)));
    for (int h : sub.hiddenLayers)
        layout.layers.push_back(sheet(h, level_y(level++)));
    layout.layers.push_back(sheet(sub.outputs, level_y(level)));
    return layout;
}

Genome
expandCppn(const Genome &cppn, const NeatConfig &cppn_cfg,
           const SubstrateConfig &sub)
{
    GENESYS_ASSERT(cppn_cfg.numInputs == 4 && cppn_cfg.numOutputs == 1,
                   "CPPN must map (x1,y1,x2,y2) -> weight");
    // A CPPN is queried as a stateless function of the coordinates,
    // so it always lowers feed-forward.
    NeatConfig ff_cfg = cppn_cfg;
    ff_cfg.feedForward = true;
    const auto net = nn::CompiledPlan::compileFor(cppn, ff_cfg);
    PlanScratch scratch;
    const auto layout = substrateLayout(sub);

    Genome phenotype(cppn.key());

    // Node keys: substrate inputs use the usual negative keys;
    // hidden/output nodes get consecutive non-negative keys with
    // outputs first (0 .. outputs-1), hidden following.
    std::vector<std::vector<int>> keys(layout.layers.size());
    for (int i = 0; i < sub.inputs; ++i)
        keys[0].push_back(-i - 1);
    int next_hidden = sub.outputs;
    for (size_t l = 1; l + 1 < layout.layers.size(); ++l) {
        for (size_t i = 0; i < layout.layers[l].size(); ++i)
            keys[l].push_back(next_hidden++);
    }
    for (int o = 0; o < sub.outputs; ++o)
        keys.back().push_back(o);

    // Node genes: defaults (the CPPN encodes connectivity; biases
    // could come from a second CPPN output — kept default here).
    for (size_t l = 1; l < keys.size(); ++l) {
        for (int k : keys[l]) {
            NodeGene ng;
            ng.key = k;
            phenotype.mutableNodes().emplace(k, ng);
        }
    }

    // Query the CPPN for every adjacent-sheet pair.
    for (size_t l = 0; l + 1 < layout.layers.size(); ++l) {
        for (size_t i = 0; i < layout.layers[l].size(); ++i) {
            for (size_t j = 0; j < layout.layers[l + 1].size(); ++j) {
                const auto [x1, y1] = layout.layers[l][i];
                const auto [x2, y2] = layout.layers[l + 1][j];
                const double query[] = {x1, y1, x2, y2};
                net.activate(query, scratch);
                const double w = scratch.outputs[0];
                // Map the (sigmoid-range or tanh-range) response to
                // [-1, 1] around 0.5 if needed, then threshold.
                const double centered =
                    (w >= 0.0 && w <= 1.0) ? 2.0 * w - 1.0 : w;
                if (std::fabs(centered) <= sub.weightThreshold)
                    continue;
                const double mag =
                    (std::fabs(centered) - sub.weightThreshold) /
                    (1.0 - sub.weightThreshold);
                ConnectionGene cg;
                cg.key = {keys[l][i], keys[l + 1][j]};
                cg.weight = std::copysign(
                    std::min(1.0, mag) * sub.weightScale, centered);
                cg.enabled = true;
                phenotype.mutableConnections().emplace(cg.key, cg);
            }
        }
    }
    return phenotype;
}

long
cppnStoredBytes(const Genome &cppn)
{
    return static_cast<long>(cppn.memoryBytes());
}

long
phenotypeStoredBytes(const Genome &phenotype)
{
    return static_cast<long>(phenotype.memoryBytes());
}

} // namespace genesys::nn
