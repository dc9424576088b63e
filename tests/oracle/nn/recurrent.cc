#include "nn/recurrent.hh"

#include <map>

#include "common/logging.hh"
#include "neat/aggregations.hh"

namespace genesys::nn
{

RecurrentNetwork
RecurrentNetwork::create(const Genome &genome, const NeatConfig &cfg,
                         NumericsTier tier)
{
    RecurrentNetwork net;
    net.numInputs_ = cfg.numInputs;
    net.numOutputs_ = cfg.numOutputs;
    net.tier_ = tier;

    // Slots: inputs first, then every node gene (cycles allowed, so
    // no topological requirement).
    std::map<int, int> slot_of;
    for (int i = 0; i < cfg.numInputs; ++i)
        slot_of[-i - 1] = i;
    int next_slot = cfg.numInputs;
    for (const auto &[nk, ng] : genome.nodes())
        slot_of[nk] = next_slot++;
    net.numSlots_ = next_slot;

    std::map<int, std::vector<std::pair<int, double>>> inbound;
    for (const auto &[ck, cg] : genome.connections()) {
        if (cg.enabled)
            inbound[ck.second].emplace_back(
                ck.first, tierAttribute(cg.weight, tier));
    }

    for (const auto &[nk, ng] : genome.nodes()) {
        NodeEval ev;
        ev.key = nk;
        ev.activation = ng.activation;
        ev.aggregation = ng.aggregation;
        ev.bias = tierAttribute(ng.bias, tier);
        ev.response = tierAttribute(ng.response, tier);
        ev.slot = slot_of.at(nk);
        auto it = inbound.find(nk);
        if (it != inbound.end()) {
            for (const auto &[src, w] : it->second) {
                ev.links.emplace_back(src, w);
                auto s = slot_of.find(src);
                ev.slotLinks.emplace_back(
                    s == slot_of.end() ? -1 : s->second, w);
            }
        }
        net.evals_.push_back(std::move(ev));
    }

    net.outputSlots_.assign(static_cast<size_t>(cfg.numOutputs), -1);
    for (int o = 0; o < cfg.numOutputs; ++o) {
        auto s = slot_of.find(o);
        if (s != slot_of.end())
            net.outputSlots_[static_cast<size_t>(o)] = s->second;
    }
    net.reset();
    return net;
}

void
RecurrentNetwork::reset()
{
    prev_.assign(static_cast<size_t>(numSlots_), 0.0);
    curr_.assign(static_cast<size_t>(numSlots_), 0.0);
}

std::vector<double>
RecurrentNetwork::activate(const std::vector<double> &inputs)
{
    GENESYS_ASSERT(inputs.size() == static_cast<size_t>(numInputs_),
                   "expected " << numInputs_ << " inputs, got "
                               << inputs.size());

    // Inputs are visible in the *previous* frame so this tick's node
    // updates read them (standard NEAT recurrent evaluation).
    for (int i = 0; i < numInputs_; ++i) {
        const double in = tierInput(inputs[static_cast<size_t>(i)], tier_);
        prev_[static_cast<size_t>(i)] = in;
        curr_[static_cast<size_t>(i)] = in;
    }

    std::vector<double> weighted;
    for (const auto &ev : evals_) {
        if (ev.aggregation == neat::Aggregation::Sum) {
            double acc = 0.0;
            for (const auto &[slot, w] : ev.slotLinks) {
                if (slot >= 0)
                    acc += prev_[static_cast<size_t>(slot)] * w;
            }
            curr_[static_cast<size_t>(ev.slot)] = tierActivate(
                ev.activation, ev.bias + ev.response * acc, tier_);
            continue;
        }
        weighted.clear();
        weighted.reserve(ev.slotLinks.size());
        for (const auto &[slot, w] : ev.slotLinks) {
            weighted.push_back(
                (slot >= 0 ? prev_[static_cast<size_t>(slot)] : 0.0) *
                w);
        }
        const double agg = neat::aggregate(ev.aggregation, weighted);
        curr_[static_cast<size_t>(ev.slot)] = tierActivate(
            ev.activation, ev.bias + ev.response * agg, tier_);
    }
    std::swap(prev_, curr_);

    std::vector<double> outputs;
    outputs.reserve(static_cast<size_t>(numOutputs_));
    for (int o = 0; o < numOutputs_; ++o) {
        const int slot = outputSlots_[static_cast<size_t>(o)];
        // After the swap, prev_ holds this tick's values.
        outputs.push_back(
            slot >= 0 ? prev_[static_cast<size_t>(slot)] : 0.0);
    }
    return outputs;
}

long
RecurrentNetwork::macsPerInference() const
{
    long macs = 0;
    for (const auto &ev : evals_)
        macs += static_cast<long>(ev.slotLinks.size());
    return macs;
}

} // namespace genesys::nn
