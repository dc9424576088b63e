/**
 * @file
 * Compiled phenotype plans: the flat vectorized inference path.
 *
 * The paper's premise is that NEAT inference "is basically processing
 * an acyclic directed graph" and that ADAM's vectorize routine packs
 * ready vertices into dense matrix-vector products (Section IV-D). A
 * CompiledPlan is the software mirror of that lowering: a genome is
 * compiled **once** into flat contiguous arrays — slot-indexed
 * values, levelized layer spans, per-node activation/bias/response
 * tables and the weight blocks below — and activate() executes the
 * levelized layers as dense inner loops with no maps, no allocation,
 * and a caller-provided scratch buffer.
 *
 * Like ADAM, the plan packs each layer's Sum nodes into dense tiles:
 * up to kTileWidth consecutive Sum nodes share one zero-padded,
 * row-major weight block whose rows are the union of their sources.
 * The kernel loads each row's input once and accumulates every node
 * of the tile from it, two nodes per 16-byte vector. Padding is
 * exact: an accumulator starts at +0.0 and, under round-to-nearest, a
 * sum that starts at +0 never becomes -0, so adding a pad's
 * x * +0.0 = +-0 leaves it unchanged bit for bit. The one exception
 * is a non-finite x, whose pad product is NaN; a tile whose sums come
 * out NaN is recomputed with its pads masked out. Other aggregations
 * keep one CSR-style block per node.
 *
 * A plan is immutable after compileFor(), so it is safe to share
 * read-only across exec::EvalEngine workers and episode lanes; all
 * mutable state lives in the caller's PlanScratch, one per lane. The
 * plan is the library's only phenotype. Its outputs are bit-identical
 * to the reference interpreters (FeedForwardNetwork /
 * RecurrentNetwork), which live with the tests in tests/oracle/: the
 * plan preserves the interpreter's node order, per-node link order
 * and accumulation order exactly, which the differential fuzz
 * harnesses in tests/test_compiled_plan.cc and
 * tests/test_recurrent_plan.cc lock down.
 *
 * Plans come in two modes, so every genome — acyclic or cyclic — runs
 * through the same execution substrate. compileFor() picks the mode
 * from NeatConfig::feedForward and is the one compile entry point:
 *
 *  * Feed-forward: levelized layers, each activate() is one stateless
 *    forward pass. A genome containing cycles compiles to the same
 *    phenotype the feed-forward interpreter builds — cycle members
 *    never become "ready", so they (and everything downstream) stay
 *    unevaluated and read as 0.
 *
 *  * Recurrent (NeatConfig::feedForward == false): every node gene
 *    updates every tick from the *previous* tick's values, held in
 *    double-buffered prev/curr slot arrays in the scratch. activate()
 *    advances one tick; reset() clears the state at episode
 *    boundaries. Bit-identical to the test oracle's RecurrentNetwork
 *    interpreter.
 */

#ifndef GENESYS_NN_COMPILED_PLAN_HH
#define GENESYS_NN_COMPILED_PLAN_HH

#include <cstdint>
#include <span>
#include <vector>

#include "neat/genome.hh"
#include "nn/levelize.hh"
#include "nn/numerics.hh"

namespace genesys::nn
{

using neat::Genome;
using neat::NeatConfig;

/**
 * Caller-owned mutable state for CompiledPlan::activate. Reusing one
 * scratch across calls makes the hot loop allocation-free after the
 * first activation; a scratch may be moved between plans (buffers
 * are resized on entry) but must not be shared across threads.
 * Recurrent plans keep their cross-tick node state here (prev/curr),
 * so the plan itself stays immutable and shareable.
 */
struct PlanScratch
{
    /** Dense value slots: inputs first, then evaluated nodes. */
    std::vector<double> values;
    /** Weighted-input staging for non-Sum aggregations. */
    std::vector<double> weighted;
    /** Output activations of the most recent activate() call. */
    std::vector<double> outputs;
    /** Recurrent double buffer: previous tick's slot values. */
    std::vector<double> prev;
    /** Recurrent double buffer: slot values being written this tick. */
    std::vector<double> curr;
};

/**
 * Reusable buffers for CompiledPlan::compileFor.
 * Compilation is allocation-bound (~15 small vectors per compile);
 * keeping one scratch per thread and passing it to every compile
 * makes steady-state compilation allocation-free. The fields are an
 * implementation detail of the compiler — callers only default
 * construct and reuse. Not shareable across threads.
 */
struct CompileScratch
{
    std::vector<int> keys;
    std::vector<const neat::NodeGene *> genes;
    std::vector<int32_t> keyToIndex;
    // Flattened enabled edges (parallel arrays).
    std::vector<int32_t> edgeSrc;
    std::vector<int32_t> edgeDst;
    std::vector<double> edgeWeight;
    // CSR adjacency.
    std::vector<int32_t> inDeg, outDeg;
    std::vector<int32_t> inOff, outOff, inFill;
    std::vector<int32_t> inSrc, outDst;
    std::vector<double> inW;
    // Reachability + levelization.
    std::vector<char> required;
    std::vector<int32_t> stack, frontier, next;
    /** Flattened waves: wave w spans waveNodes[waveOffs[w] .. waveOffs[w+1]). */
    std::vector<int32_t> waveNodes, waveOffs;
    std::vector<int32_t> slotOf, remaining;
    /** Per-vertex id of the last block that read it as a source;
     *  while a tile is written, the vertex's row in it. */
    std::vector<int32_t> sourceStamp;
    /** One bit per vertex: the sources of the tile being written. */
    std::vector<uint64_t> rowBits;
    /** Execution position of each block's first node, then numNodes. */
    std::vector<int32_t> blockStart;
};

/** A genome lowered to flat arrays, executable without the genome. */
class CompiledPlan
{
  public:
    /** Most Sum nodes one tile packs: four 16-byte vectors per row. */
    static constexpr int kTileWidth = 8;

    /** Node-index range [begin, end) of one topological layer. */
    struct LayerSpan
    {
        int32_t begin = 0;
        int32_t end = 0;
    };

    /**
     * Lower `genome` into a flat execution plan: levelized layers for
     * NeatConfig::feedForward configs, a recurrent tick otherwise — so
     * every consumer (PlanCache, replay, the engine) runs all genomes
     * through one compiled substrate. Under NumericsTier::HwFaithful
     * the lowering additionally quantizes every bias/response/weight
     * through the Q6.10 codec and activate() runs the hw
     * approximation + Limit & Quantize kernels (see nn/numerics.hh);
     * the default Reference tier is the bit-identical float path.
     */
    static CompiledPlan
    compileFor(const Genome &genome, const NeatConfig &cfg,
               NumericsTier tier = NumericsTier::Reference);
    /** As compileFor(), reusing the caller's scratch. */
    static CompiledPlan
    compileFor(const Genome &genome, const NeatConfig &cfg,
               CompileScratch &scratch,
               NumericsTier tier = NumericsTier::Reference);

    /** Was this plan lowered with recurrent (stateful) semantics? */
    bool isRecurrent() const { return recurrent_; }

    /** The numerics tier this plan was lowered under. */
    NumericsTier numericsTier() const { return tier_; }

    /**
     * Evaluate the plan. Feed-forward plans run every levelized layer
     * as dense inner loops over its weight blocks. Recurrent plans
     * advance one tick: latch `inputs` and update every node from the
     * previous tick's values (scratch.prev); call reset() at episode
     * start, or this panics. Leaves the outputs in `scratch.outputs`.
     * Allocation-free once `scratch` has warmed up. Thread-safe for
     * concurrent callers with distinct scratches.
     */
    void activate(std::span<const double> inputs,
                  PlanScratch &scratch) const;

    /**
     * Clear the recurrent state in `scratch` (start of an episode) —
     * the plan-side mirror of RecurrentNetwork::reset. No-op for
     * feed-forward plans, so episode loops may call it untyped.
     */
    void reset(PlanScratch &scratch) const;

    size_t numInputs() const { return static_cast<size_t>(numInputs_); }
    size_t numOutputs() const
    {
        return static_cast<size_t>(numOutputs_);
    }
    /** Value slots (inputs + evaluated nodes). */
    int numSlots() const { return numSlots_; }
    /** Evaluated nodes (layered for feed-forward, all for recurrent). */
    int numNodes() const
    {
        return static_cast<int>(activation_.size());
    }

    /**
     * Multiply-accumulates per activate() call — counts every enabled
     * inbound edge of an evaluated node, matching
     * FeedForwardNetwork::macsPerInference (feed-forward) and
     * RecurrentNetwork::macsPerInference (recurrent, per tick), and
     * the schedule's totalMacs.
     */
    long macsPerInference() const { return macs_; }

    /**
     * The ADAM inference schedule derived from the *same* structure
     * this plan executes, so software execution and the EvE/ADAM cost
     * model agree by construction. Feed-forward plans schedule their
     * levelized layers; recurrent plans schedule one packed layer per
     * tick (every node updates each tick, so the whole graph is one
     * ready wave).
     */
    const InferenceSchedule &schedule() const { return schedule_; }

    /** Node-index spans of the execution layers, in order. */
    const std::vector<LayerSpan> &layerSpans() const
    {
        return layerSpans_;
    }

  private:
    /**
     * The feed-forward lowering: levelized layers of the nodes on an
     * enabled path into the outputs. Requires a structurally valid
     * genome (no dangling connection endpoints).
     */
    static CompiledPlan
    compileFeedForward(const Genome &genome, const NeatConfig &cfg,
                       CompileScratch &scratch, NumericsTier tier);

    /**
     * The recurrent lowering (cycles allowed): every node gene updates
     * each tick from the previous tick's values, matching
     * RecurrentNetwork bit for bit.
     */
    static CompiledPlan
    compileRecurrent(const Genome &genome, const NeatConfig &cfg,
                     CompileScratch &scratch, NumericsTier tier);

    /** activate() for both modes, specialized per numerics tier so
     *  the Reference hot loop carries no tier branch. */
    template <NumericsTier kTier>
    void activateImpl(std::span<const double> inputs,
                      PlanScratch &scratch) const;

    /**
     * The body of both modes: evaluate every node, block by
     * block, reading source slots from `rd` and writing activations to
     * `wr` (one array for feed-forward plans, the prev/curr frames for
     * a recurrent tick). Each node adds its edges in ascending source
     * order, as the interpreters do.
     */
    template <NumericsTier kTier>
    void activateBlocks(const double *rd, double *wr,
                        std::vector<double> &weighted) const;

    /**
     * The lowering shared by both modes: node tables, blocks, layer
     * spans and schedule for the nodes of `s.waveNodes`, layer by
     * layer as `s.waveOffs` delimits them, reading in-edges from the
     * scratch CSR (`inOff`/`inSrc`/`inW`) and slots from `s.slotOf`.
     * Node n lands in value slot numInputs + n.
     */
    void lowerNodes(CompileScratch &s, NumericsTier tier);

    /**
     * Full post-compile structure walk (checked builds only): blocks
     * cover every node once, every Sum node sits in a Sum-only tile of
     * at most kTileWidth columns, tile rows are readable slots in
     * strictly ascending source order, each column's mask popcount is
     * its node's resolvable in-degree, pads are +0.0 and at most as
     * many as the real cells; layer spans contiguous and covering
     * every node. `s` is the scratch the plan was lowered from. Runs
     * once per compile, so its O(cells) cost never touches the
     * activate hot path.
     */
    void dcheckCompiled(const char *what, const CompileScratch &s) const;

    int numInputs_ = 0;
    int numOutputs_ = 0;
    int numSlots_ = 0;
    long macs_ = 0;
    bool recurrent_ = false;
    NumericsTier tier_ = NumericsTier::Reference;

    // Per-node tables, structure-of-arrays in execution order. Node n
    // writes value slot numInputs_ + n.
    std::vector<neat::Activation> activation_;
    std::vector<neat::Aggregation> aggregation_;
    std::vector<double> bias_;
    std::vector<double> response_;

    /**
     * One unit of kernel work: a tile of 1..kTileWidth consecutive Sum
     * nodes, or one node with another aggregation. Block b covers
     * nodes [node, next.node), rows [row, next.row) of edgeSrc_ and
     * edgeMask_, and the rows x width weights from `weight` on; the
     * last entry is a sentinel holding the three totals.
     */
    struct Block
    {
        int32_t node = 0;
        int32_t row = 0;
        int32_t weight = 0;
    };
    std::vector<Block> blocks_; // numBlocks + 1 entries

    /**
     * Source value slot per block row. A tile's rows are the union of
     * its nodes' resolvable sources in ascending source order (the
     * interpreters' per-node link order), so each node meets its own
     * edges in its own order; out-of-graph sources are dropped, as the
     * interpreters' Sum fast paths skip them. A non-Sum node's rows are
     * its edges in link order, with a -1 sentinel per out-of-graph
     * source that contributes an explicit 0-valued operand exactly like
     * the interpreters.
     */
    std::vector<int32_t> edgeSrc_;
    /** Per row, bit k set when the block's column k has a real edge
     *  there; the rest are pads. Read only to recompute a NaN tile. */
    std::vector<uint8_t> edgeMask_;
    /** Per block, a row-major rows x width weight matrix; pads +0.0. */
    std::vector<double> edgeWeight_;

    std::vector<LayerSpan> layerSpans_;
    /** Value slot of each output key; -1 when unreachable (reads 0). */
    std::vector<int32_t> outputSlot_;

    InferenceSchedule schedule_;
};

} // namespace genesys::nn

#endif // GENESYS_NN_COMPILED_PLAN_HH
