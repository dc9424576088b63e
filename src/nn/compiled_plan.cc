#include "nn/compiled_plan.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "common/check.hh"
#include "common/fixed_point.hh"
#include "common/logging.hh"
#include "neat/activations.hh"
#include "neat/aggregations.hh"
#include "nn/hw_activations.hh"

namespace genesys::nn
{

namespace
{

/** The HwFaithful per-node Limit & Quantize stage (Q6.10). */
constexpr FixedPointQuantizer kHwQuantizer = hwact::hwQuantizer();

/**
 * Compile-time attribute quantization for the HwFaithful lowering:
 * bias/response/weight pass through the same Q6.10 codec the gene
 * wire format uses, so a plan executes exactly the values the
 * hardware's Genome Buffer would hold. Reference plans copy
 * attributes untouched.
 */
double
lowerAttr(double v, NumericsTier tier, const FixedPointCodec &codec)
{
    return tier == NumericsTier::HwFaithful ? codec.quantize(v) : v;
}

/**
 * Key compression shared by both lowerings. Index space: inputs
 * -numInputs..-1 first (ascending key), then every node gene
 * (ascending key; all keys >= 0). The genome's flat SoA storage
 * already holds the node keys as one sorted contiguous array, so this
 * is two bulk copies — no per-gene tree walk — and lookups are O(1)
 * direct-address hits or binary searches over a dense vector.
 */
void
compressKeys(const Genome &genome, int num_inputs, CompileScratch &s)
{
    const auto &node_keys = genome.nodes().keys();
    const auto &node_genes = genome.nodes().values();
    s.keys.clear();
    s.genes.clear();
    s.keys.reserve(static_cast<size_t>(num_inputs) + node_keys.size());
    s.genes.reserve(s.keys.capacity());
    for (int i = num_inputs; i >= 1; --i) {
        s.keys.push_back(-i);
        s.genes.push_back(nullptr);
    }
    s.keys.insert(s.keys.end(), node_keys.begin(), node_keys.end());
    for (const neat::NodeGene &ng : node_genes)
        s.genes.push_back(&ng);

    // Key -> index lookup. The edge-endpoint lookups, two per
    // connection, were the dominant cost of compiling dense genomes,
    // so when the key space is dense use a direct-address table
    // (O(1) per lookup). Node ids are issued by a run-global indexer
    // and never reused, so late-run genomes can hold a few hundred
    // genes with ids in the hundreds of thousands — there the table
    // would cost more to zero than the searches it saves, so fall
    // back to binary search over the sorted key array (keyToIndex
    // left empty signals the sparse fallback).
    const int num_vertices = static_cast<int>(s.keys.size());
    const int max_key = node_keys.empty() ? -1 : node_keys.back();
    const size_t table_size =
        static_cast<size_t>(num_inputs + std::max(max_key, -1) + 1);
    const bool dense =
        table_size <= 4 * static_cast<size_t>(num_vertices) + 64;
    s.keyToIndex.clear();
    if (dense) {
        s.keyToIndex.assign(table_size, -1);
        for (int v = 0; v < num_vertices; ++v)
            s.keyToIndex[static_cast<size_t>(
                s.keys[static_cast<size_t>(v)] + num_inputs)] = v;
    }
}

/**
 * Compressed index of `key`, -1 when not in the graph. Input keys
 * -numInputs..-1 sit at indices 0..numInputs-1, so they map directly.
 * Node keys are unique, ascending and never negative, so node key k
 * sits at most k places into the node range, and exactly k when keys
 * 0..k are all present — true of every output key, the destination of
 * most edges.
 */
int32_t
indexOf(const CompileScratch &s, int num_inputs, int key)
{
    if (key < 0)
        return key >= -num_inputs ? key + num_inputs : -1;
    const auto guess = static_cast<size_t>(num_inputs) +
                       static_cast<size_t>(key);
    if (guess < s.keys.size() && s.keys[guess] == key)
        return static_cast<int32_t>(guess);
    if (!s.keyToIndex.empty()) {
        // Above every node key: a dangling reference.
        return guess < s.keyToIndex.size() ? s.keyToIndex[guess] : -1;
    }
    const auto first = s.keys.begin() + num_inputs;
    const auto last = guess < s.keys.size()
                          ? s.keys.begin() + static_cast<ptrdiff_t>(guess)
                          : s.keys.end();
    auto it = std::lower_bound(first, last, key);
    if (it == last || *it != key)
        return -1;
    return static_cast<int32_t>(it - s.keys.begin());
}

/** Stamp the resolvable sources of vertex `v` with block `block`. */
void
stampSources(CompileScratch &s, int32_t v, int32_t block)
{
    for (int32_t e = s.inOff[static_cast<size_t>(v)];
         e < s.inOff[static_cast<size_t>(v) + 1]; ++e) {
        const int32_t src = s.inSrc[static_cast<size_t>(e)];
        if (src >= 0)
            s.sourceStamp[static_cast<size_t>(src)] = block;
    }
}

/**
 * Write the tile of the `width` Sum-node vertices `verts`. Their
 * resolvable sources go into a bitmap, which read back in order gives
 * the rows as the ascending union, so every node meets its own edges
 * in its own order. Per row: the source slot, the mask of columns
 * with a real edge, and those columns' weights (the caller
 * zero-filled the block, so pads stay +0.0). Leaves the bitmap clear
 * and overwrites s.sourceStamp with each source's row. Returns the
 * number of rows.
 */
int32_t
emitTile(CompileScratch &s, const int32_t *verts, int width,
         NumericsTier tier, const FixedPointCodec &codec, int32_t *rowSlot,
         uint8_t *rowMask, double *weights)
{
    // Raw pointers: the byte-wide mask stores may alias anything, so
    // indexing through the vectors would reload their data pointers
    // after every store.
    const int32_t *const in_off = s.inOff.data();
    const int32_t *const in_src = s.inSrc.data();
    const double *const in_w = s.inW.data();
    const int32_t *const slot_of = s.slotOf.data();
    int32_t *const row_of = s.sourceStamp.data();
    uint64_t *const row_bits = s.rowBits.data();
    const size_t num_words = s.rowBits.size();

    size_t lo = num_words;
    size_t hi = 0;
    for (int k = 0; k < width; ++k) {
        // An in-list ascends, so gather each word's bits in a register
        // and store it once.
        size_t word = num_words;
        uint64_t bits = 0;
        for (int32_t e = in_off[verts[k]]; e < in_off[verts[k] + 1]; ++e) {
            const int32_t src = in_src[e];
            if (src < 0)
                continue;
            if (static_cast<size_t>(src) / 64 != word) {
                if (bits != 0)
                    row_bits[word] |= bits;
                word = static_cast<size_t>(src) / 64;
                bits = 0;
                lo = std::min(lo, word);
                hi = std::max(hi, word);
            }
            bits |= uint64_t{1} << (src % 64);
        }
        if (bits != 0)
            row_bits[word] |= bits;
    }
    int32_t rows = 0;
    for (size_t word = lo; word <= hi && lo < num_words; ++word) {
        for (uint64_t bits = std::exchange(row_bits[word], 0); bits != 0;
             bits &= bits - 1) {
            const auto v = word * 64 + static_cast<size_t>(
                                           std::countr_zero(bits));
            row_of[v] = rows;
            rowSlot[rows] = slot_of[v];
            rowMask[rows] = 0;
            ++rows;
        }
    }
    for (int k = 0; k < width; ++k) {
        for (int32_t e = in_off[verts[k]]; e < in_off[verts[k] + 1]; ++e) {
            const int32_t src = in_src[e];
            if (src < 0)
                continue;
            const int32_t r = row_of[src];
            rowMask[r] = static_cast<uint8_t>(rowMask[r] | 1u << k);
            weights[static_cast<size_t>(r) * width + k] =
                lowerAttr(in_w[e], tier, codec);
        }
    }
    return rows;
}

/** Two doubles in one 16-byte vector: an SSE2 register on x86-64. */
using Pair = double __attribute__((vector_size(16)));
/** Per-element compare results of two Pairs. */
using PairMask = int64_t __attribute__((vector_size(16)));

/** Is any of the first N sums NaN? Two compares per vector. */
template <int N>
[[gnu::always_inline]] inline bool
anyNaN(const double *sums)
{
    PairMask nan = {};
    for (int i = 0; i + 1 < N; i += 2) {
        Pair p;
        std::memcpy(&p, sums + i, sizeof p);
        nan |= p != p;
    }
    if constexpr (N % 2 != 0)
        return (nan[0] | nan[1]) != 0 || sums[N - 1] != sums[N - 1];
    return (nan[0] | nan[1]) != 0;
}

/**
 * The tile kernel: the sums of a W-column tile of `numRows`
 * rows. Each row's input is loaded once and multiplies a row of
 * weights two columns per vector. Every column adds its cells in row
 * order, which is its node's edge order, so a column's sum is the
 * node's one-edge-at-a-time sum bit for bit unless a pad met a
 * non-finite input (see maskedTileSums). Returns whether any sum is
 * NaN.
 */
template <int W>
bool
tileSums(const double *rd, const int32_t *rows, int32_t numRows,
         const double *w, double *sums)
{
    constexpr int kPairs = W / 2;
    Pair acc[kPairs > 0 ? kPairs : 1] = {};
    double odd = 0.0;
    for (int32_t r = 0; r < numRows; ++r) {
        const double x = rd[rows[r]];
        const Pair xx = {x, x};
        const double *const wr = w + static_cast<size_t>(r) * W;
        for (int p = 0; p < kPairs; ++p) {
            Pair wp;
            std::memcpy(&wp, wr + 2 * p, sizeof wp);
            acc[p] += xx * wp;
        }
        if constexpr (W % 2 != 0)
            odd += x * wr[W - 1];
    }
    for (int p = 0; p < kPairs; ++p)
        std::memcpy(sums + 2 * p, &acc[p], sizeof acc[p]);
    if constexpr (W % 2 != 0)
        sums[W - 1] = odd;
    return anyNaN<W>(sums);
}

/**
 * A tile's sums with its pads masked out. A pad multiplies its row's
 * input by +0.0, which is NaN for an infinite or NaN input, so a tile
 * whose fast sums hold a NaN is recomputed here: this adds exactly
 * each node's own edges, in order, as the interpreters do.
 */
void
maskedTileSums(const double *rd, const int32_t *rows, const uint8_t *masks,
               int32_t numRows, const double *w, int width, double *sums)
{
    std::fill(sums, sums + width, 0.0);
    for (int32_t r = 0; r < numRows; ++r) {
        const double x = rd[rows[r]];
        const double *const wr = w + static_cast<size_t>(r) * width;
        for (int k = 0; k < width; ++k) {
            if ((masks[r] >> k & 1u) != 0)
                sums[k] += x * wr[k];
        }
    }
}

} // namespace

/*
 * compileFeedForward() re-implements the analyzeGenome walks over dense
 * index-compressed arrays instead of std::map adjacency — it runs
 * once per genome per generation and its cost is the plan cache's
 * only fixed overhead, so it avoids per-edge map lookups entirely.
 * The semantics are identical by contract (same required set, same
 * layers, same slot assignment, same per-node link order); the
 * differential fuzz harness diffs the result against the
 * map-based interpreter path bit-for-bit. Requires a structurally
 * valid genome (no dangling connection endpoints — Genome::validate's
 * invariant).
 */
CompiledPlan
CompiledPlan::compileFeedForward(const Genome &genome, const NeatConfig &cfg,
                                 CompileScratch &s, NumericsTier tier)
{
    CompiledPlan plan;
    plan.tier_ = tier;
    plan.numInputs_ = cfg.numInputs;
    plan.numOutputs_ = cfg.numOutputs;

    const int num_inputs = cfg.numInputs;
    compressKeys(genome, num_inputs, s);
    const int num_vertices = static_cast<int>(s.keys.size());

    // --- flatten enabled edges -------------------------------------------
    // The gene array is stored in (src, dst) order, so edges grouped
    // by destination later come out in ascending source order — the
    // interpreter's per-node link order, which activate() must
    // reproduce for bit-identical accumulation. This is a single
    // contiguous walk over the connection SoA array, which also counts
    // the degrees. In-degree counts every enabled in-edge — including
    // ones from unresolvable sources, which must block the node
    // forever (they never count down).
    s.edgeSrc.clear();
    s.edgeDst.clear();
    s.edgeWeight.clear();
    s.edgeSrc.reserve(genome.connections().size());
    s.edgeDst.reserve(genome.connections().size());
    s.edgeWeight.reserve(genome.connections().size());
    s.inDeg.assign(static_cast<size_t>(num_vertices), 0);
    s.outDeg.assign(static_cast<size_t>(num_vertices), 0);
    for (const neat::ConnectionGene &cg : genome.connections().values()) {
        if (!cg.enabled)
            continue;
        const int32_t dst = indexOf(s, num_inputs, cg.key.second);
        if (dst < 0)
            continue; // dangling destination: nothing to evaluate
        const int32_t src = indexOf(s, num_inputs, cg.key.first);
        s.edgeSrc.push_back(src);
        s.edgeDst.push_back(dst);
        s.edgeWeight.push_back(cg.weight);
        ++s.inDeg[static_cast<size_t>(dst)];
        if (src >= 0)
            ++s.outDeg[static_cast<size_t>(src)];
    }
    const size_t num_edges = s.edgeDst.size();

    // --- adjacency (CSR over compressed indices) --------------------------
    s.inOff.assign(static_cast<size_t>(num_vertices) + 1, 0);
    s.outOff.assign(static_cast<size_t>(num_vertices) + 1, 0);
    for (int v = 0; v < num_vertices; ++v) {
        s.inOff[static_cast<size_t>(v) + 1] =
            s.inOff[static_cast<size_t>(v)] +
            s.inDeg[static_cast<size_t>(v)];
        s.outOff[static_cast<size_t>(v) + 1] =
            s.outOff[static_cast<size_t>(v)] +
            s.outDeg[static_cast<size_t>(v)];
    }
    // In-lists keep (source index, weight) in edge order — ascending
    // source per destination. Out-lists only need targets, and edge
    // order already groups them: resolvable source indices ascend
    // with the source keys.
    s.inSrc.resize(num_edges);
    s.inW.resize(num_edges);
    s.outDst.resize(
        static_cast<size_t>(s.outOff[static_cast<size_t>(num_vertices)]));
    s.inFill = s.inOff;
    size_t out_fill = 0;
    for (size_t e = 0; e < num_edges; ++e) {
        const int32_t src = s.edgeSrc[e];
        const int32_t dst = s.edgeDst[e];
        const auto slot =
            static_cast<size_t>(s.inFill[static_cast<size_t>(dst)]++);
        s.inSrc[slot] = src;
        s.inW[slot] = s.edgeWeight[e];
        if (src >= 0)
            s.outDst[out_fill++] = dst;
    }

    // --- backward reachability from the outputs ---------------------------
    // required == analyzeGenome().required: outputs plus every
    // non-input vertex on an enabled path into them.
    s.required.assign(static_cast<size_t>(num_vertices), 0);
    s.stack.clear();
    for (int o = 0; o < cfg.numOutputs; ++o) {
        const int32_t idx = indexOf(s, num_inputs, o);
        GENESYS_ASSERT(idx >= 0, "output node " << o << " missing gene");
        s.required[static_cast<size_t>(idx)] = 1;
        s.stack.push_back(idx);
    }
    while (!s.stack.empty()) {
        const int32_t dst = s.stack.back();
        s.stack.pop_back();
        for (int32_t e = s.inOff[static_cast<size_t>(dst)];
             e < s.inOff[static_cast<size_t>(dst) + 1]; ++e) {
            const int32_t src = s.inSrc[static_cast<size_t>(e)];
            // Inputs (index < numInputs) terminate the walk.
            if (src >= num_inputs && !s.required[static_cast<size_t>(src)]) {
                s.required[static_cast<size_t>(src)] = 1;
                s.stack.push_back(src);
            }
        }
    }

    // --- levelization by in-degree countdown ------------------------------
    // A required node joins the wave after its last source resolved;
    // zero-in-edge nodes (inDeg 0) never join, matching analyzeGenome.
    s.remaining = s.inDeg;
    s.frontier.clear();
    for (int i = 0; i < num_inputs; ++i)
        s.frontier.push_back(i);
    s.waveNodes.clear();
    s.waveOffs.clear();
    s.waveOffs.push_back(0);
    while (!s.frontier.empty()) {
        s.next.clear();
        for (int32_t src : s.frontier) {
            for (int32_t e = s.outOff[static_cast<size_t>(src)];
                 e < s.outOff[static_cast<size_t>(src) + 1]; ++e) {
                const int32_t dst = s.outDst[static_cast<size_t>(e)];
                if (s.required[static_cast<size_t>(dst)] &&
                    --s.remaining[static_cast<size_t>(dst)] == 0)
                    s.next.push_back(dst);
            }
        }
        // Ascending index == ascending key (keys are sorted), so this
        // matches the interpreter's within-layer order.
        std::sort(s.next.begin(), s.next.end());
        if (!s.next.empty()) {
            s.waveNodes.insert(s.waveNodes.end(), s.next.begin(),
                               s.next.end());
            s.waveOffs.push_back(
                static_cast<int32_t>(s.waveNodes.size()));
        }
        std::swap(s.frontier, s.next);
    }

    // --- lowering: slots, then node tables, tiles and schedule ------------
    // Slot assignment matches FeedForwardNetwork::create: input key
    // -i-1 gets slot i, then layered nodes in emission order.
    s.slotOf.assign(static_cast<size_t>(num_vertices), -1);
    for (int i = 0; i < num_inputs; ++i)
        s.slotOf[static_cast<size_t>(i)] = num_inputs - 1 - i;
    int32_t next_slot = num_inputs;
    for (int32_t idx : s.waveNodes)
        s.slotOf[static_cast<size_t>(idx)] = next_slot++;
    plan.numSlots_ = next_slot;
    plan.lowerNodes(s, tier);

    plan.outputSlot_.assign(static_cast<size_t>(cfg.numOutputs), -1);
    for (int o = 0; o < cfg.numOutputs; ++o) {
        const int32_t idx = indexOf(s, num_inputs, o);
        if (idx >= 0)
            plan.outputSlot_[static_cast<size_t>(o)] =
                s.slotOf[static_cast<size_t>(idx)];
    }
    plan.dcheckCompiled("CompiledPlan::compileFeedForward", s);
    return plan;
}

/*
 * compileRecurrent() lowers RecurrentNetwork::create's structure to
 * the same flat arrays: no reachability pruning and no levelization —
 * every node gene updates every tick (cycles are well-defined because
 * reads come from the previous tick's double buffer), in ascending
 * key order, each node reading its enabled in-edges in ascending
 * source order. The MAC count and the per-node link order match the
 * interpreter exactly; tests/test_recurrent_plan.cc fuzzes the
 * equivalence bit for bit.
 */
CompiledPlan
CompiledPlan::compileRecurrent(const Genome &genome,
                               const NeatConfig &cfg, CompileScratch &s,
                               NumericsTier tier)
{
    CompiledPlan plan;
    plan.recurrent_ = true;
    plan.tier_ = tier;
    plan.numInputs_ = cfg.numInputs;
    plan.numOutputs_ = cfg.numOutputs;

    const int num_inputs = cfg.numInputs;
    compressKeys(genome, num_inputs, s);
    const int num_vertices = static_cast<int>(s.keys.size());
    const int n_nodes = num_vertices - num_inputs;

    // Slots match RecurrentNetwork::create: input key -i-1 gets slot
    // i, then every node gene in ascending key order. Vertex index v
    // therefore maps to slot (num_inputs - 1 - v) for inputs and to
    // its own index for nodes (both orderings are ascending-key).
    plan.numSlots_ = num_vertices;
    const auto slot_of_vertex = [num_inputs](int32_t v) -> int32_t {
        return v < num_inputs ? num_inputs - 1 - v : v;
    };

    // --- per-destination in-edges (CSR, node destinations only) ----------
    // The interpreter groups connections by destination while
    // iterating in (src, dst) order, so per destination the sources
    // come out ascending; edges whose destination is not a node gene
    // have no evaluator and drop out (dangling sources stay, as -1
    // slot sentinels — they block nothing in recurrent mode but do
    // count as MACs, exactly like the interpreter's slotLinks).
    s.inDeg.assign(static_cast<size_t>(num_vertices), 0);
    size_t kept_edges = 0;
    for (const neat::ConnectionGene &cg : genome.connections().values()) {
        if (!cg.enabled)
            continue;
        const int32_t dst = indexOf(s, num_inputs, cg.key.second);
        if (dst < num_inputs)
            continue; // dangling or input destination: no evaluator
        ++s.inDeg[static_cast<size_t>(dst)];
        ++kept_edges;
    }
    s.inOff.assign(static_cast<size_t>(num_vertices) + 1, 0);
    for (int v = 0; v < num_vertices; ++v)
        s.inOff[static_cast<size_t>(v) + 1] =
            s.inOff[static_cast<size_t>(v)] +
            s.inDeg[static_cast<size_t>(v)];
    s.inSrc.resize(kept_edges);
    s.inW.resize(kept_edges);
    s.inFill = s.inOff;
    for (const neat::ConnectionGene &cg : genome.connections().values()) {
        if (!cg.enabled)
            continue;
        const int32_t dst = indexOf(s, num_inputs, cg.key.second);
        if (dst < num_inputs)
            continue;
        const auto slot =
            static_cast<size_t>(s.inFill[static_cast<size_t>(dst)]++);
        s.inSrc[slot] = indexOf(s, num_inputs, cg.key.first);
        s.inW[slot] = cg.weight;
    }

    // --- lowering: every node, ascending key, one wave per tick ----------
    // The whole graph is simultaneously ready (every node reads the
    // previous tick), so ADAM sees a single M x K step per inference
    // with M = all nodes and K = the distinct sources feeding them.
    s.slotOf.resize(static_cast<size_t>(num_vertices));
    s.waveNodes.clear();
    for (int32_t v = 0; v < num_vertices; ++v) {
        s.slotOf[static_cast<size_t>(v)] = slot_of_vertex(v);
        if (v >= num_inputs)
            s.waveNodes.push_back(v);
    }
    s.waveOffs.assign(1, 0);
    if (n_nodes > 0)
        s.waveOffs.push_back(n_nodes);
    plan.lowerNodes(s, tier);

    plan.outputSlot_.assign(static_cast<size_t>(cfg.numOutputs), -1);
    for (int o = 0; o < cfg.numOutputs; ++o) {
        const int32_t idx = indexOf(s, num_inputs, o);
        if (idx >= 0)
            plan.outputSlot_[static_cast<size_t>(o)] =
                slot_of_vertex(idx);
    }
    plan.dcheckCompiled("CompiledPlan::compileRecurrent", s);
    return plan;
}

/*
 * Both lowerings end here. Pass 1 walks every in-edge once for the
 * schedule (MACs, distinct sources per layer) and grows the tiles
 * greedily: the next Sum node joins the open tile while the tile
 * stays at most kTileWidth wide and its real edges fill at least half
 * of rows x width, so padded work stays under 2x the real MACs.
 * Knowing every block's rows and cells, pass 2 sizes the plan's
 * arrays exactly once and writes them.
 */
void
CompiledPlan::lowerNodes(CompileScratch &s, NumericsTier tier)
{
    const FixedPointCodec codec(kHwIntBits, kHwFracBits);
    const size_t n_nodes = s.waveNodes.size();
    const size_t num_waves = s.waveOffs.size() - 1;
    const auto is_sum = [&s](int32_t v) {
        return s.genes[static_cast<size_t>(v)]->aggregation ==
               neat::Aggregation::Sum;
    };

    // --- pass 1: schedule, layer spans, block boundaries ------------------
    // Blocks get increasing ids, and each resolvable source is stamped
    // with the last block that read it, so one stamp answers both
    // questions: a source is new to its layer when its stamp predates
    // the layer's first block (PackedLayer::vectorLen counts distinct
    // sources, the out-of-graph sentinel as one more), and new to the
    // open tile when its stamp is not the tile's id.
    s.sourceStamp.assign(s.keys.size(), -1);
    s.rowBits.assign((s.keys.size() + 63) / 64, 0);
    s.blockStart.clear();
    int32_t sentinel_stamp = -1;
    int32_t next_block = 0;
    size_t rows = 0;
    size_t cells = 0;
    layerSpans_.reserve(num_waves);
    schedule_.layers.reserve(num_waves);
    for (size_t w = 0; w < num_waves; ++w) {
        const int32_t w0 = s.waveOffs[w];
        const int32_t w1 = s.waveOffs[w + 1];
        const int32_t layer_first = next_block;
        PackedLayer packed;
        packed.numNodes = static_cast<int>(w1 - w0);
        // The open tile; tiles never span layers.
        int32_t tile = -1;
        long width = 0;
        long tile_rows = 0;
        long tile_real = 0;
        const auto close_tile = [&] {
            rows += static_cast<size_t>(tile_rows);
            cells += static_cast<size_t>(tile_rows * width);
            width = 0;
            tile_rows = 0;
        };
        for (int32_t i = w0; i < w1; ++i) {
            const int32_t v = s.waveNodes[static_cast<size_t>(i)];
            GENESYS_ASSERT(s.genes[static_cast<size_t>(v)] != nullptr,
                           "layered vertex "
                               << s.keys[static_cast<size_t>(v)]
                               << " missing gene");
            const int32_t e0 = s.inOff[static_cast<size_t>(v)];
            const int32_t e1 = s.inOff[static_cast<size_t>(v) + 1];
            const bool sum = is_sum(v);
            // A Sum node may join the open tile; any other node opens
            // a block of its own.
            const bool joins = sum && width > 0 && width < kTileWidth;
            const int32_t block = joins ? tile : next_block++;
            long real = 0;
            long fresh = 0;
            for (int32_t e = e0; e < e1; ++e) {
                const int32_t src = s.inSrc[static_cast<size_t>(e)];
                int32_t &stamp = src >= 0
                                     ? s.sourceStamp[static_cast<size_t>(src)]
                                     : sentinel_stamp;
                packed.vectorLen += stamp < layer_first;
                fresh += src >= 0 && stamp != block;
                real += src >= 0;
                stamp = block;
            }
            macs_ += e1 - e0;
            packed.weights += e1 - e0;
            if (!sum) {
                close_tile();
                s.blockStart.push_back(i);
                rows += static_cast<size_t>(e1 - e0);
                cells += static_cast<size_t>(e1 - e0);
                continue;
            }
            if (joins &&
                2 * (tile_real + real) >= (tile_rows + fresh) * (width + 1)) {
                ++width;
                tile_rows += fresh;
                tile_real += real;
                continue;
            }
            close_tile();
            s.blockStart.push_back(i);
            tile = block;
            if (joins) {
                // Rejected: this node opens the next tile instead.
                tile = next_block++;
                stampSources(s, v, tile);
            }
            // A node never lists one source twice: its rows are its
            // resolvable in-degree.
            tile_rows = real;
            tile_real = real;
            width = 1;
        }
        close_tile();
        layerSpans_.push_back({w0, w1});
        schedule_.layers.push_back(packed);
    }
    s.blockStart.push_back(static_cast<int32_t>(n_nodes));

    // --- pass 2: node tables and blocks, each sized once ------------------
    activation_.reserve(n_nodes);
    aggregation_.reserve(n_nodes);
    bias_.reserve(n_nodes);
    response_.reserve(n_nodes);
    for (int32_t v : s.waveNodes) {
        const neat::NodeGene *ng = s.genes[static_cast<size_t>(v)];
        activation_.push_back(ng->activation);
        aggregation_.push_back(ng->aggregation);
        bias_.push_back(lowerAttr(ng->bias, tier, codec));
        response_.push_back(lowerAttr(ng->response, tier, codec));
    }
    const size_t num_blocks = s.blockStart.size() - 1;
    blocks_.resize(num_blocks + 1);
    edgeSrc_.resize(rows);
    edgeMask_.resize(rows);
    edgeWeight_.resize(cells); // zero-filled: every pad is +0.0
    int32_t row = 0;
    int32_t weight = 0;
    for (size_t b = 0; b < num_blocks; ++b) {
        const int32_t first = s.blockStart[b];
        const int width = s.blockStart[b + 1] - first;
        blocks_[b] = {first, row, weight};
        const int32_t *const verts = s.waveNodes.data() + first;
        if (is_sum(verts[0])) {
            const int32_t tile_rows =
                emitTile(s, verts, width, tier, codec, edgeSrc_.data() + row,
                         edgeMask_.data() + row, edgeWeight_.data() + weight);
            row += tile_rows;
            weight += tile_rows * width;
            continue;
        }
        for (int32_t e = s.inOff[static_cast<size_t>(verts[0])];
             e < s.inOff[static_cast<size_t>(verts[0]) + 1]; ++e, ++row) {
            const int32_t src = s.inSrc[static_cast<size_t>(e)];
            edgeSrc_[static_cast<size_t>(row)] =
                src >= 0 ? s.slotOf[static_cast<size_t>(src)] : -1;
            edgeMask_[static_cast<size_t>(row)] = 1;
            edgeWeight_[static_cast<size_t>(weight++)] =
                lowerAttr(s.inW[static_cast<size_t>(e)], tier, codec);
        }
    }
    blocks_[num_blocks] = {static_cast<int32_t>(n_nodes), row, weight};
    GENESYS_ASSERT(static_cast<size_t>(row) == rows &&
                       static_cast<size_t>(weight) == cells,
                   "tile sizing diverged: " << row << " rows, " << weight
                                            << " cells emitted, " << rows
                                            << ", " << cells << " sized");
}

void
CompiledPlan::dcheckCompiled(const char *what, const CompileScratch &s) const
{
#ifdef GENESYS_CHECKED
    const auto n_nodes = static_cast<int32_t>(activation_.size());
    GENESYS_DCHECK(!blocks_.empty() && blocks_.front().node == 0 &&
                       blocks_.front().row == 0 &&
                       blocks_.front().weight == 0 &&
                       blocks_.back().node == n_nodes &&
                       static_cast<size_t>(blocks_.back().row) ==
                           edgeSrc_.size() &&
                       edgeMask_.size() == edgeSrc_.size() &&
                       static_cast<size_t>(blocks_.back().weight) ==
                           edgeWeight_.size(),
                   what << ": blocks must start at 0 and end at the node,"
                        << " row and weight totals");
    // Source order is vertex order; a slot names its vertex through
    // the slot assignment the lowering used.
    const auto vertex_of = [&](int32_t slot) {
        return slot < numInputs_
                   ? numInputs_ - 1 - slot
                   : s.waveNodes[static_cast<size_t>(slot - numInputs_)];
    };
    for (size_t b = 0; b + 1 < blocks_.size(); ++b) {
        const Block &blk = blocks_[b];
        const Block &next = blocks_[b + 1];
        const int32_t width = next.node - blk.node;
        const int32_t rows = next.row - blk.row;
        GENESYS_DCHECK(width >= 1 && rows >= 0 &&
                           next.weight - blk.weight == rows * width,
                       what << ": block " << b << " holds " << width
                            << " nodes, " << rows << " rows and "
                            << next.weight - blk.weight << " weights");
        const bool sum = aggregation_[static_cast<size_t>(blk.node)] ==
                         neat::Aggregation::Sum;
        if (!sum) {
            GENESYS_DCHECK(width == 1, what << ": non-Sum block " << b
                                            << " is " << width << " wide");
            for (int32_t r = blk.row; r < next.row; ++r) {
                const int32_t slot = edgeSrc_[static_cast<size_t>(r)];
                GENESYS_DCHECK(slot >= -1 && slot < numSlots_,
                               what << ": row " << r << " reads slot "
                                    << slot << " outside [-1, "
                                    << numSlots_ << ")");
            }
            continue;
        }
        GENESYS_DCHECK(width <= kTileWidth,
                       what << ": tile " << b << " is " << width
                            << " wide");
        long real = 0;
        for (int32_t k = 0; k < width; ++k) {
            const auto n = static_cast<size_t>(blk.node + k);
            GENESYS_DCHECK(aggregation_[n] == neat::Aggregation::Sum,
                           what << ": tile " << b << " holds non-Sum node "
                                << n);
            long in_degree = 0;
            const int32_t v = s.waveNodes[n];
            for (int32_t e = s.inOff[static_cast<size_t>(v)];
                 e < s.inOff[static_cast<size_t>(v) + 1]; ++e)
                in_degree += s.inSrc[static_cast<size_t>(e)] >= 0;
            long popcount = 0;
            for (int32_t r = blk.row; r < next.row; ++r)
                popcount += edgeMask_[static_cast<size_t>(r)] >> k & 1u;
            GENESYS_DCHECK(popcount == in_degree,
                           what << ": column " << k << " of tile " << b
                                << " marks " << popcount << " edges of "
                                << in_degree);
            real += popcount;
        }
        for (int32_t r = blk.row; r < next.row; ++r) {
            const int32_t slot = edgeSrc_[static_cast<size_t>(r)];
            GENESYS_DCHECK(slot >= 0 && slot < numSlots_,
                           what << ": tile row " << r << " reads slot "
                                << slot << " outside [0, " << numSlots_
                                << ")");
            GENESYS_DCHECK(r == blk.row ||
                               vertex_of(edgeSrc_[static_cast<size_t>(
                                   r - 1)]) < vertex_of(slot),
                           what << ": tile " << b << " rows not in"
                                << " strictly ascending source order at"
                                << " row " << r);
            const uint8_t mask = edgeMask_[static_cast<size_t>(r)];
            for (int32_t k = 0; k < width; ++k) {
                const double wt = edgeWeight_[static_cast<size_t>(
                    blk.weight + (r - blk.row) * width + k)];
                GENESYS_DCHECK((mask >> k & 1u) != 0 ||
                                   std::bit_cast<uint64_t>(wt) == 0,
                               what << ": pad (" << r << ", " << k
                                    << ") of tile " << b << " holds "
                                    << wt << ", not +0.0");
            }
        }
        GENESYS_DCHECK(static_cast<long>(rows) * width - real <= real,
                       what << ": tile " << b << " pads "
                            << static_cast<long>(rows) * width - real
                            << " cells around " << real << " edges");
    }
    int32_t covered = 0;
    for (const LayerSpan &span : layerSpans_) {
        GENESYS_DCHECK(span.begin == covered && span.end >= span.begin,
                       what << ": layer spans must tile [0, numNodes)"
                            << " contiguously");
        covered = span.end;
    }
    GENESYS_DCHECK(covered == n_nodes,
                   what << ": layer spans cover " << covered << " of "
                        << n_nodes << " nodes");
    for (size_t o = 0; o < outputSlot_.size(); ++o) {
        GENESYS_DCHECK(outputSlot_[o] == -1 ||
                           (outputSlot_[o] >= 0 &&
                            outputSlot_[o] < numSlots_),
                       what << ": output " << o << " reads slot "
                            << outputSlot_[o]);
    }
#else
    (void)what;
    (void)s;
#endif
}

CompiledPlan
CompiledPlan::compileFor(const Genome &genome, const NeatConfig &cfg,
                         CompileScratch &scratch, NumericsTier tier)
{
    return cfg.feedForward
               ? compileFeedForward(genome, cfg, scratch, tier)
               : compileRecurrent(genome, cfg, scratch, tier);
}

CompiledPlan
CompiledPlan::compileFor(const Genome &genome, const NeatConfig &cfg,
                         NumericsTier tier)
{
    CompileScratch scratch;
    return compileFor(genome, cfg, scratch, tier);
}

template <NumericsTier kTier>
void
CompiledPlan::activateBlocks(const double *rd, double *wr,
                             std::vector<double> &weighted) const
{
    // Raw pointers hoisted out of the loop: `weighted` escapes into
    // neat::aggregateInPlace on the generic path, so indexing through
    // the vectors would force the compiler to reload data pointers
    // after every opaque call in the hot loop.
    const Block *const blk = blocks_.data();
    const double *const w = edgeWeight_.data();
    const int32_t *const src = edgeSrc_.data();
    const uint8_t *const mask = edgeMask_.data();
    const neat::Activation *const act = activation_.data();
    const neat::Aggregation *const agg = aggregation_.data();
    const double *const bias = bias_.data();
    const double *const response = response_.data();
    double *const out = wr + numInputs_;

    const size_t num_blocks = blocks_.size() - 1;
    for (size_t b = 0; b < num_blocks; ++b) {
        const int32_t n = blk[b].node;
        const int width = blk[b + 1].node - n;
        const int32_t r0 = blk[b].row;
        const int32_t rows = blk[b + 1].row - r0;
        const double *const wt = w + blk[b].weight;
        double pre[kTileWidth];
        if (agg[n] == neat::Aggregation::Sum) {
            const int32_t *const tr = src + r0;
            bool nan = false;
            switch (width) {
              case 1: tileSums<1>(rd, tr, rows, wt, pre); break;
              case 2: nan = tileSums<2>(rd, tr, rows, wt, pre); break;
              case 3: nan = tileSums<3>(rd, tr, rows, wt, pre); break;
              case 4: nan = tileSums<4>(rd, tr, rows, wt, pre); break;
              case 5: nan = tileSums<5>(rd, tr, rows, wt, pre); break;
              case 6: nan = tileSums<6>(rd, tr, rows, wt, pre); break;
              case 7: nan = tileSums<7>(rd, tr, rows, wt, pre); break;
              default: nan = tileSums<8>(rd, tr, rows, wt, pre); break;
            }
            // A one-column tile has no pads, so its NaN is the node's.
            if (nan)
                maskedTileSums(rd, tr, mask + r0, rows, wt, width, pre);
        } else {
            weighted.clear();
            for (int32_t r = r0; r < r0 + rows; ++r)
                weighted.push_back((src[r] >= 0 ? rd[src[r]] : 0.0) *
                                   wt[r - r0]);
            pre[0] = neat::aggregateInPlace(agg[n], weighted);
        }
        for (int k = 0; k < width; ++k) {
            const int32_t m = n + k;
            if constexpr (kTier == NumericsTier::HwFaithful)
                out[m] = hwact::activateQuantized(
                    act[m], bias[m] + response[m] * pre[k], kHwQuantizer);
            else
                out[m] =
                    neat::activate(act[m], bias[m] + response[m] * pre[k]);
        }
    }
}

void
CompiledPlan::activate(std::span<const double> inputs,
                       PlanScratch &scratch) const
{
    if (tier_ == NumericsTier::HwFaithful)
        activateImpl<NumericsTier::HwFaithful>(inputs, scratch);
    else
        activateImpl<NumericsTier::Reference>(inputs, scratch);
}

template <NumericsTier kTier>
void
CompiledPlan::activateImpl(std::span<const double> inputs,
                           PlanScratch &scratch) const
{
    GENESYS_ASSERT(inputs.size() == static_cast<size_t>(numInputs_),
                   "expected " << numInputs_ << " inputs, got "
                               << inputs.size());
    if (recurrent_) {
        GENESYS_ASSERT(scratch.prev.size() == static_cast<size_t>(numSlots_),
                       "recurrent scratch not reset for this plan — call "
                       "reset() before the first tick");
    } else {
        // No zero-fill: every slot read below is an input slot or the
        // destination of an earlier node, both written before the read
        // (out-of-graph sources are either compiled out or sentinels).
        scratch.values.resize(static_cast<size_t>(numSlots_));
    }
    scratch.outputs.resize(static_cast<size_t>(numOutputs_));

    // Read/write frames. Nodes of one feed-forward layer read only
    // earlier layers, so the blocks, in layer order, read and write
    // one value array. A recurrent tick reads the previous tick's
    // frame and writes the current one, then swaps them.
    double *const rd =
        recurrent_ ? scratch.prev.data() : scratch.values.data();
    double *const wr = recurrent_ ? scratch.curr.data() : rd;
    for (int i = 0; i < numInputs_; ++i) {
        double in = inputs[static_cast<size_t>(i)];
        // Sensor latch: observations enter the datapath through the
        // same Q6.10 Limit & Quantize stage every node output passes.
        if constexpr (kTier == NumericsTier::HwFaithful)
            in = kHwQuantizer(in);
        rd[i] = in;
    }
    // A recurrent tick's current frame keeps the inputs too, so they
    // survive the swap.
    if (recurrent_)
        std::copy(rd, rd + numInputs_, wr);

    activateBlocks<kTier>(rd, wr, scratch.weighted);
    if (recurrent_)
        std::swap(scratch.prev, scratch.curr);

    const double *const settled =
        recurrent_ ? scratch.prev.data() : scratch.values.data();
    double *const outputs = scratch.outputs.data();
    for (int o = 0; o < numOutputs_; ++o) {
        const int32_t slot = outputSlot_[static_cast<size_t>(o)];
        outputs[o] = slot >= 0 ? settled[slot] : 0.0;
    }
}

void
CompiledPlan::reset(PlanScratch &scratch) const
{
    if (!recurrent_)
        return;
    scratch.prev.assign(static_cast<size_t>(numSlots_), 0.0);
    scratch.curr.assign(static_cast<size_t>(numSlots_), 0.0);
}

} // namespace genesys::nn
