#include "nn/feedforward.hh"

#include <algorithm>
#include <set>

#include "common/fixed_point.hh"
#include "common/logging.hh"
#include "neat/activations.hh"
#include "neat/aggregations.hh"
#include "nn/hw_activations.hh"

namespace genesys::nn
{

double
tierAttribute(double v, NumericsTier tier)
{
    if (tier != NumericsTier::HwFaithful)
        return v;
    return FixedPointCodec(kHwIntBits, kHwFracBits).quantize(v);
}

double
tierInput(double x, NumericsTier tier)
{
    return tier == NumericsTier::HwFaithful ? hwact::hwQuantizer()(x) : x;
}

double
tierActivate(neat::Activation a, double x, NumericsTier tier)
{
    if (tier == NumericsTier::HwFaithful)
        return hwact::activateQuantized(a, x, hwact::hwQuantizer());
    return neat::activate(a, x);
}

GenomeAnalysis
analyzeGenome(const Genome &genome, const NeatConfig &cfg)
{
    GenomeAnalysis out;

    // One pass over the connection genes builds the adjacency both
    // walks run on; nothing below touches the gene storage again.
    std::map<int, std::vector<int>> in_of;  // dst -> enabled sources
    std::map<int, std::vector<int>> out_of; // src -> enabled dests
    for (const auto &[ck, cg] : genome.connections()) {
        if (!cg.enabled)
            continue;
        in_of[ck.second].push_back(ck.first);
        out_of[ck.first].push_back(ck.second);
    }

    // Backward reachability from the outputs. Inputs (negative keys)
    // terminate the walk: they are always available, never "required".
    std::vector<int> stack;
    for (int o : Genome::outputKeys(cfg)) {
        out.required.insert(o);
        stack.push_back(o);
    }
    while (!stack.empty()) {
        const int dst = stack.back();
        stack.pop_back();
        auto it = in_of.find(dst);
        if (it == in_of.end())
            continue;
        for (int src : it->second) {
            if (src >= 0 && out.required.insert(src).second)
                stack.push_back(src);
        }
    }

    // Levelization by in-degree countdown over the required subgraph.
    // A node joins a layer the wave after its last source became
    // available; nodes with zero enabled in-edges never join (they
    // are never "fed by something available"), and edges from
    // unresolvable sources — cycle members, dangling references —
    // simply never count down, excluding everything downstream.
    std::map<int, int> remaining;
    for (int n : out.required) {
        auto it = in_of.find(n);
        remaining[n] =
            it == in_of.end() ? 0 : static_cast<int>(it->second.size());
    }
    std::vector<int> frontier = Genome::inputKeys(cfg);
    while (!frontier.empty()) {
        std::vector<int> next;
        for (int src : frontier) {
            auto it = out_of.find(src);
            if (it == out_of.end())
                continue;
            for (int dst : it->second) {
                auto r = remaining.find(dst);
                if (r != remaining.end() && --r->second == 0)
                    next.push_back(dst);
            }
        }
        std::sort(next.begin(), next.end());
        if (!next.empty())
            out.layers.push_back(next);
        frontier = std::move(next);
    }
    return out;
}

std::set<int>
requiredForOutput(const Genome &genome, const NeatConfig &cfg)
{
    return analyzeGenome(genome, cfg).required;
}

std::vector<std::vector<int>>
feedForwardLayers(const Genome &genome, const NeatConfig &cfg)
{
    return analyzeGenome(genome, cfg).layers;
}

FeedForwardNetwork
FeedForwardNetwork::create(const Genome &genome, const NeatConfig &cfg,
                           NumericsTier tier)
{
    FeedForwardNetwork net;
    net.numInputs_ = cfg.numInputs;
    net.numOutputs_ = cfg.numOutputs;
    net.tier_ = tier;
    net.layers_ = analyzeGenome(genome, cfg).layers;

    // Dense slot assignment: inputs first, then nodes in layer order.
    std::map<int, int> slot_of;
    for (int i = 0; i < cfg.numInputs; ++i)
        slot_of[-i - 1] = i;
    int next_slot = cfg.numInputs;
    for (const auto &layer : net.layers_) {
        for (int nk : layer)
            slot_of[nk] = next_slot++;
    }
    net.numSlots_ = next_slot;

    // Inbound-edge index: one pass over the connection genes instead
    // of one per node.
    std::map<int, std::vector<std::pair<int, double>>> inbound;
    for (const auto &[ck, cg] : genome.connections()) {
        if (cg.enabled)
            inbound[ck.second].emplace_back(
                ck.first, tierAttribute(cg.weight, tier));
    }

    for (const auto &layer : net.layers_) {
        for (int nk : layer) {
            auto it = genome.nodes().find(nk);
            GENESYS_ASSERT(it != genome.nodes().end(),
                           "layered node " << nk << " missing gene");
            NodeEval ev;
            ev.key = nk;
            ev.activation = it->second.activation;
            ev.aggregation = it->second.aggregation;
            ev.bias = tierAttribute(it->second.bias, tier);
            ev.response = tierAttribute(it->second.response, tier);
            ev.slot = slot_of.at(nk);
            auto in_it = inbound.find(nk);
            if (in_it != inbound.end()) {
                for (const auto &[src, w] : in_it->second) {
                    ev.links.emplace_back(src, w);
                    auto s = slot_of.find(src);
                    // Sources outside the required set evaluate to 0;
                    // give them a sentinel slot.
                    ev.slotLinks.emplace_back(
                        s == slot_of.end() ? -1 : s->second, w);
                }
            }
            net.evals_.push_back(std::move(ev));
        }
    }

    net.outputSlots_.assign(static_cast<size_t>(cfg.numOutputs), -1);
    for (int o = 0; o < cfg.numOutputs; ++o) {
        auto s = slot_of.find(o);
        if (s != slot_of.end())
            net.outputSlots_[static_cast<size_t>(o)] = s->second;
    }
    return net;
}

std::vector<double>
FeedForwardNetwork::activate(const std::vector<double> &inputs) const
{
    GENESYS_ASSERT(inputs.size() == static_cast<size_t>(numInputs_),
                   "expected " << numInputs_ << " inputs, got "
                               << inputs.size());

    std::vector<double> values(static_cast<size_t>(numSlots_), 0.0);
    for (int i = 0; i < numInputs_; ++i)
        values[static_cast<size_t>(i)] =
            tierInput(inputs[static_cast<size_t>(i)], tier_);

    std::vector<double> weighted;
    for (const auto &ev : evals_) {
        // Fast path: plain weighted sum with the default sigmoid-family
        // activations dominates; the generic path handles the rest.
        if (ev.aggregation == neat::Aggregation::Sum) {
            double acc = 0.0;
            for (const auto &[slot, w] : ev.slotLinks) {
                if (slot >= 0)
                    acc += values[static_cast<size_t>(slot)] * w;
            }
            values[static_cast<size_t>(ev.slot)] = tierActivate(
                ev.activation, ev.bias + ev.response * acc, tier_);
            continue;
        }
        weighted.clear();
        weighted.reserve(ev.slotLinks.size());
        for (const auto &[slot, w] : ev.slotLinks) {
            weighted.push_back(
                (slot >= 0 ? values[static_cast<size_t>(slot)] : 0.0) * w);
        }
        const double agg = neat::aggregate(ev.aggregation, weighted);
        values[static_cast<size_t>(ev.slot)] = tierActivate(
            ev.activation, ev.bias + ev.response * agg, tier_);
    }

    std::vector<double> outputs;
    outputs.reserve(static_cast<size_t>(numOutputs_));
    for (int o = 0; o < numOutputs_; ++o) {
        const int slot = outputSlots_[static_cast<size_t>(o)];
        outputs.push_back(
            slot >= 0 ? values[static_cast<size_t>(slot)] : 0.0);
    }
    return outputs;
}

long
FeedForwardNetwork::macsPerInference() const
{
    long macs = 0;
    for (const auto &ev : evals_)
        macs += static_cast<long>(ev.links.size());
    return macs;
}

InferenceSchedule
levelize(const Genome &genome, const NeatConfig &cfg)
{
    InferenceSchedule sched;
    for (const auto &layer : analyzeGenome(genome, cfg).layers) {
        PackedLayer pl;
        pl.numNodes = static_cast<int>(layer.size());

        // The packed input vector holds every distinct source the
        // layer's nodes read; the CPU gathers those node values
        // ("picking the ready node values to create input vectors",
        // Section IV-D).
        std::set<int> sources;
        std::set<int> members(layer.begin(), layer.end());
        for (const auto &[ck, cg] : genome.connections()) {
            if (!cg.enabled || !members.count(ck.second))
                continue;
            sources.insert(ck.first);
            ++pl.weights;
        }
        pl.vectorLen = static_cast<int>(sources.size());
        sched.layers.push_back(pl);
    }
    return sched;
}

} // namespace genesys::nn
