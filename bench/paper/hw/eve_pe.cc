#include "hw/eve_pe.hh"

#include <algorithm>
#include <tuple>

#include "common/logging.hh"

namespace genesys::hw
{

namespace
{

/** Sort key for merge-join: (is_connection, id/src, 0/dst). */
std::tuple<int, int, int>
geneKey(const GeneCodec &codec, PackedGene g)
{
    if (g.isNode())
        return {0, codec.nodeId(g), 0};
    return {1, codec.connectionSource(g), codec.connectionDest(g)};
}

} // namespace

PeConfig
peConfigFrom(const neat::NeatConfig &cfg, size_t expected_stream_len)
{
    PeConfig pe;
    pe.crossoverBias = 0.5;
    pe.perturbProb = cfg.weight.mutateRate;
    pe.perturbPower = cfg.weight.mutatePower;
    const double len =
        std::max<double>(1.0, static_cast<double>(expected_stream_len));
    // Per-child -> per-gene probability scaling (see header comment).
    pe.nodeDeleteProb = std::min(1.0, cfg.nodeDeleteProb / len);
    pe.connDeleteProb = std::min(1.0, cfg.connDeleteProb / len);
    pe.nodeAddProb = std::min(1.0, cfg.nodeAddProb / len);
    pe.connAddProb = std::min(1.0, cfg.connAddProb / len);
    pe.maxNodeDeletions = cfg.maxNodeDeletionsPerChild > 0
                              ? cfg.maxNodeDeletionsPerChild
                              : 2;
    pe.attrMin = cfg.weight.minValue;
    pe.attrMax = cfg.weight.maxValue;
    return pe;
}

std::vector<GenePair>
alignStreams(const std::vector<PackedGene> &parent1,
             const std::vector<PackedGene> &parent2,
             const GeneCodec &codec, long *cycles_out)
{
    std::vector<GenePair> out;
    out.reserve(parent1.size());
    long cycles = 0;

    size_t i = 0, j = 0;
    while (i < parent1.size() || j < parent2.size()) {
        ++cycles;
        if (j >= parent2.size() ||
            (i < parent1.size() &&
             geneKey(codec, parent1[i]) < geneKey(codec, parent2[j]))) {
            // Parent-1-only gene: singleton pair.
            GenePair p;
            p.parent1 = parent1[i++];
            p.hasParent2 = false;
            out.push_back(p);
        } else if (i >= parent1.size() ||
                   geneKey(codec, parent2[j]) <
                       geneKey(codec, parent1[i])) {
            // Parent-2-only gene: consumed by the aligner, no pair.
            ++j;
        } else {
            GenePair p;
            p.parent1 = parent1[i++];
            p.parent2 = parent2[j++];
            p.hasParent2 = true;
            out.push_back(p);
        }
    }
    if (cycles_out)
        *cycles_out = cycles;
    return out;
}

EvePe::EvePe(const GeneCodec &codec, PeConfig cfg, uint64_t prng_seed)
    : codec_(codec), cfg_(cfg), prng_(prng_seed)
{
}

PackedGene
EvePe::crossoverStage(const GenePair &in, neat::MutationCounts &ops)
{
    if (!in.hasParent2) {
        // Disjoint gene: cloned from the fitter parent.
        ++ops.cloneOps;
        return in.parent1;
    }
    ++ops.crossoverOps;

    // Per-attribute parent select, one PRNG compare per attribute
    // (Fig 7: four replicated select units biased by a programmable
    // threshold).
    auto pick = [this] { return randUnit() < cfg_.crossoverBias; };

    if (in.parent1.isNode()) {
        neat::NodeGene a = codec_.decodeNode(in.parent1);
        const neat::NodeGene b = codec_.decodeNode(in.parent2);
        GENESYS_ASSERT(a.key == b.key, "misaligned node pair");
        if (!pick())
            a.bias = b.bias;
        if (!pick())
            a.response = b.response;
        if (!pick())
            a.activation = b.activation;
        if (!pick())
            a.aggregation = b.aggregation;
        return codec_.encodeNode(a, codec_.nodeClass(in.parent1));
    }
    neat::ConnectionGene a = codec_.decodeConnection(in.parent1);
    const neat::ConnectionGene b = codec_.decodeConnection(in.parent2);
    GENESYS_ASSERT(a.key == b.key, "misaligned connection pair");
    if (!pick())
        a.weight = b.weight;
    if (!pick())
        a.enabled = b.enabled;
    return codec_.encodeConnection(a);
}

PackedGene
EvePe::perturbStage(PackedGene g, neat::MutationCounts &ops)
{
    ++ops.perturbOps;
    auto perturb = [this](double v) {
        if (randUnit() < cfg_.perturbProb)
            v += randSigned() * cfg_.perturbPower;
        // Limit & Quantize (the codec saturates and rounds on
        // encode; clamp here so the value domain matches the config
        // bounds, which may be tighter than the Q6.10 range).
        return std::clamp(v, cfg_.attrMin, cfg_.attrMax);
    };

    if (g.isNode()) {
        neat::NodeGene n = codec_.decodeNode(g);
        const NodeClass cls = codec_.nodeClass(g);
        n.bias = perturb(n.bias);
        n.response = perturb(n.response);
        return codec_.encodeNode(n, cls);
    }
    neat::ConnectionGene c = codec_.decodeConnection(g);
    c.weight = perturb(c.weight);
    return codec_.encodeConnection(c);
}

bool
EvePe::deleteStage(PackedGene g, neat::MutationCounts &ops)
{
    if (g.isNode()) {
        const int id = codec_.nodeId(g);
        const bool deletable = codec_.nodeClass(g) == NodeClass::Hidden;
        // "If a threshold amount of nodes are previously deleted, no
        // node deletion happens in order to keep the genome alive"
        // (Section IV-C3).
        if (deletable && nodeDeletions_ < cfg_.maxNodeDeletions &&
            randUnit() < cfg_.nodeDeleteProb) {
            deletedIds_.insert(id);
            ++nodeDeletions_;
            ++ops.deleteOps;
            return false;
        }
        liveNodeIds_.insert(id);
        maxNodeId_ = std::max(maxNodeId_, id);
        return true;
    }

    const int src = codec_.connectionSource(g);
    const int dst = codec_.connectionDest(g);
    // Dangling-connection prune: compare against the deleted-ID
    // registers.
    if (deletedIds_.count(src) || deletedIds_.count(dst)) {
        ++ops.deleteOps;
        return false;
    }
    if (randUnit() < cfg_.connDeleteProb) {
        ++ops.deleteOps;
        return false;
    }
    return true;
}

void
EvePe::addStage(PackedGene g, std::vector<PackedGene> &out,
                neat::MutationCounts &ops, long &extra_cycles)
{
    if (g.isNode()) {
        out.push_back(g);
        return;
    }

    const int src = codec_.connectionSource(g);
    const int dst = codec_.connectionDest(g);

    // Add-node: split the incoming connection. The new node id is
    // "greater than any other node present in the network".
    if (randUnit() < cfg_.nodeAddProb) {
        const int new_id = ++maxNodeId_;
        liveNodeIds_.insert(new_id);

        neat::NodeGene n;
        n.key = new_id; // default attributes
        out.push_back(codec_.encodeNode(n, NodeClass::Hidden));

        const neat::ConnectionGene old = codec_.decodeConnection(g);
        neat::ConnectionGene c1;
        c1.key = {src, new_id};
        c1.weight = 1.0;
        neat::ConnectionGene c2;
        c2.key = {new_id, dst};
        c2.weight = old.weight;
        out.push_back(codec_.encodeConnection(c1));
        out.push_back(codec_.encodeConnection(c2));
        ops.addOps += 3;
        extra_cycles += 2; // three genes through a one-gene port
        return;            // incoming connection gene is dropped
    }

    out.push_back(g);

    // Add-connection: two-cycle protocol — latch the source now,
    // complete with the next connection's destination.
    if (havePendingSrc_) {
        neat::ConnectionGene c;
        c.key = {pendingSrc_, dst}; // default attributes
        if (pendingSrc_ != dst) {
            out.push_back(codec_.encodeConnection(c));
            ++ops.addOps;
            ++extra_cycles;
        }
        havePendingSrc_ = false;
    } else if (randUnit() < cfg_.connAddProb) {
        pendingSrc_ = src;
        havePendingSrc_ = true;
    }
}

PeChildResult
EvePe::processChild(const std::vector<GenePair> &stream)
{
    PeChildResult result;
    deletedIds_.clear();
    liveNodeIds_.clear();
    maxNodeId_ = 0;
    nodeDeletions_ = 0;
    havePendingSrc_ = false;

    // "it takes 2 cycles to load the parents' fitness values and
    // other control information" (Section IV-C5).
    result.cycles = 2;
    long extra = 0;

    bool seen_connection = false;
    for (const GenePair &pair : stream) {
        // Streaming order invariant: nodes first, then connections.
        if (pair.parent1.isConnection()) {
            seen_connection = true;
        } else {
            GENESYS_ASSERT(!seen_connection,
                           "node gene after connection genes in stream");
        }
        ++result.cycles;
        PackedGene g = crossoverStage(pair, result.ops);
        g = perturbStage(g, result.ops);
        if (!deleteStage(g, result.ops))
            continue;
        addStage(g, result.childGenes, result.ops, extra);
    }
    result.cycles += extra;
    result.cycles += 4; // pipeline drain

    result.deletedNodes.assign(deletedIds_.begin(), deletedIds_.end());
    return result;
}

} // namespace genesys::hw
