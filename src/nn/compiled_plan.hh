/**
 * @file
 * Compiled phenotype plans: the flat vectorized inference path.
 *
 * The paper's premise is that NEAT inference "is basically processing
 * an acyclic directed graph" and that ADAM's vectorize routine packs
 * ready vertices into dense matrix-vector products (Section IV-D). A
 * CompiledPlan is the software mirror of that lowering: a genome is
 * compiled **once** into flat contiguous arrays — slot-indexed
 * values, levelized layer spans, CSR-style weight/source arrays, and
 * per-node activation/bias/response tables — and activate() executes
 * the levelized layers as dense inner loops with no maps, no
 * allocation, and a caller-provided scratch buffer.
 *
 * A plan is immutable after compile(), so it is safe to share
 * read-only across exec::EvalEngine workers; all mutable state lives
 * in the caller's PlanScratch / BatchScratch. Outputs are
 * bit-identical to the interpreter reference implementations
 * (FeedForwardNetwork / RecurrentNetwork): the plan preserves the
 * interpreter's node order, per-node link order and accumulation
 * order exactly, which the differential fuzz harnesses in
 * tests/test_compiled_plan.cc and tests/test_recurrent_plan.cc lock
 * down.
 *
 * Plans come in two modes, so every genome — acyclic or cyclic — runs
 * through the same execution substrate:
 *
 *  * Feed-forward (compile()): levelized layers, each activate() is
 *    one stateless forward pass. A genome containing cycles compiles
 *    to the same phenotype the feed-forward interpreter builds —
 *    cycle members never become "ready", so they (and everything
 *    downstream) stay unevaluated and read as 0.
 *
 *  * Recurrent (compileRecurrent(), NeatConfig::feedForward ==
 *    false): every node gene updates every tick from the *previous*
 *    tick's values, held in double-buffered prev/curr slot arrays in
 *    the scratch. activateRecurrent() advances one tick; reset()
 *    clears the state at episode boundaries. Bit-identical to the
 *    nn::RecurrentNetwork interpreter, which is kept as the
 *    differential reference.
 *
 * Both modes also expose a batched entry point (activateBatch):
 * one shared plan evaluated across N independent episode lanes, the
 * per-edge accumulation loop running contiguously across the lane
 * dimension — the software mirror of the EvE PE-array stepping a wave
 * of episodes in BSP lockstep. Each lane's floating-point operation
 * order is exactly the serial order, so batched results stay
 * bit-identical to the serial path lane for lane.
 */

#ifndef GENESYS_NN_COMPILED_PLAN_HH
#define GENESYS_NN_COMPILED_PLAN_HH

#include <cstdint>
#include <span>
#include <vector>

#include "nn/feedforward.hh"
#include "nn/levelize.hh"
#include "nn/numerics.hh"

namespace genesys::nn
{

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
 * Caller-owned mutable state for CompiledPlan::activateBatch: one
 * shared plan, L independent episode lanes. Every array is laid out
 * lane-minor — element [i][lane] lives at i * lanes + lane — so the
 * per-edge accumulation loop walks contiguous memory across lanes.
 * Size the buffers with beginBatch(); like PlanScratch, one
 * BatchScratch must not be shared across threads.
 */
struct BatchScratch
{
    /** Network inputs, [input i][lane]: caller fills before each call. */
    std::vector<double> inputs;
    /** Feed-forward value slots, [slot][lane]. */
    std::vector<double> values;
    /** Recurrent prev-tick slots, [slot][lane]. */
    std::vector<double> prev;
    /** Recurrent curr-tick slots, [slot][lane]. */
    std::vector<double> curr;
    /** Output activations, [output o][lane]. */
    std::vector<double> outputs;
    /** Weighted-input staging for non-Sum aggregations (one lane). */
    std::vector<double> weighted;
    /** Per-lane pre-activation accumulator. */
    std::vector<double> acc;
};

/**
 * Reusable buffers for CompiledPlan::compile/compileRecurrent.
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
    std::vector<int32_t> inOff, outOff, inFill, outFill;
    std::vector<int32_t> inSrc, outDst;
    std::vector<double> inW;
    // Reachability + levelization.
    std::vector<char> required;
    std::vector<int32_t> stack, frontier, next;
    /** Flattened waves: wave w spans waveNodes[waveOffs[w] .. waveOffs[w+1]). */
    std::vector<int32_t> waveNodes, waveOffs;
    std::vector<int32_t> slotOf, remaining;
    /** Per-vertex mark of the last layer that counted it as a source. */
    std::vector<int32_t> sourceStamp;
};

/** A genome lowered to flat arrays, executable without the genome. */
class CompiledPlan
{
  public:
    /** Node-index range [begin, end) of one topological layer. */
    struct LayerSpan
    {
        int32_t begin = 0;
        int32_t end = 0;
    };

    /**
     * Lower `genome` into a flat feed-forward execution plan. Under
     * NumericsTier::HwFaithful the lowering additionally quantizes
     * every bias/response/weight through the Q6.10 codec and the
     * activate paths run the hw approximation + Limit & Quantize
     * kernels (see nn/numerics.hh); the default Reference tier is the
     * bit-identical float path every existing caller gets unchanged.
     */
    static CompiledPlan
    compile(const Genome &genome, const NeatConfig &cfg,
            NumericsTier tier = NumericsTier::Reference);
    /** As compile(), reusing the caller's per-thread scratch. */
    static CompiledPlan
    compile(const Genome &genome, const NeatConfig &cfg,
            CompileScratch &scratch,
            NumericsTier tier = NumericsTier::Reference);

    /**
     * Lower `genome` (cycles allowed) into a flat recurrent plan:
     * every node gene updates each tick from the previous tick's
     * values, matching nn::RecurrentNetwork bit for bit (Reference
     * tier; HwFaithful quantizes as compile() does).
     */
    static CompiledPlan
    compileRecurrent(const Genome &genome, const NeatConfig &cfg,
                     NumericsTier tier = NumericsTier::Reference);
    /** As compileRecurrent(), reusing the caller's scratch. */
    static CompiledPlan
    compileRecurrent(const Genome &genome, const NeatConfig &cfg,
                     CompileScratch &scratch,
                     NumericsTier tier = NumericsTier::Reference);

    /**
     * The mode-dispatching entry point: feed-forward lowering for
     * NeatConfig::feedForward configs, recurrent lowering otherwise —
     * so every consumer (PlanCache, replay, the engine) runs all
     * genomes through one compiled substrate.
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
     * as a dense inner loop over the CSR edge arrays; recurrent plans
     * advance one tick (see activateRecurrent). Leaves the outputs in
     * `scratch.outputs`. Allocation-free once `scratch` has warmed
     * up. Thread-safe for concurrent callers with distinct scratches.
     */
    void activate(std::span<const double> inputs,
                  PlanScratch &scratch) const;

    /**
     * Advance a recurrent plan one tick: latch `inputs`, update every
     * node from the previous tick's values (scratch.prev), leave this
     * tick's outputs in `scratch.outputs`. Call reset() at episode
     * start. Only valid on recurrent plans.
     */
    void activateRecurrent(std::span<const double> inputs,
                           PlanScratch &scratch) const;

    /**
     * Clear the recurrent state in `scratch` (start of an episode) —
     * the plan-side mirror of RecurrentNetwork::reset. No-op for
     * feed-forward plans, so episode loops may call it untyped.
     */
    void reset(PlanScratch &scratch) const;

    /** Convenience form: allocates a scratch and returns the outputs
     *  (for recurrent plans: one tick from a freshly reset state). */
    std::vector<double> activate(const std::vector<double> &inputs) const;

    /**
     * Size `scratch` for `lanes` concurrent episode lanes and clear
     * any recurrent state. Call once per episode wave, before the
     * first activateBatch().
     */
    void beginBatch(int lanes, BatchScratch &scratch) const;

    /**
     * Evaluate all `lanes` episode lanes in lockstep: reads
     * scratch.inputs ([input][lane]), leaves scratch.outputs
     * ([output][lane]). `activeLanes[lane]` masks finished episodes —
     * inactive lanes are carried through the accumulation loops
     * branch-free but skip the per-node activation write, so their
     * slots go stale and are never consumed. Each active lane's
     * result is bit-identical to a serial activate() fed the same
     * inputs. Recurrent plans advance every active lane one tick.
     */
    void activateBatch(int lanes, const uint8_t *activeLanes,
                       BatchScratch &scratch) const;

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
        return static_cast<int>(nodeSlot_.size());
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
    /** Serial feed-forward body, specialized per numerics tier so the
     *  Reference hot loop carries no tier branch. */
    template <NumericsTier kTier>
    void activateImpl(std::span<const double> inputs,
                      PlanScratch &scratch) const;

    /** Recurrent tick body, specialized per numerics tier. */
    template <NumericsTier kTier>
    void activateRecurrentImpl(std::span<const double> inputs,
                               PlanScratch &scratch) const;

    /**
     * The serial kernels' shared body: evaluate the nodes of `span`,
     * reading source slots from `rd` and writing activations to `wr`
     * (one array for feed-forward layers, the prev/curr frames for a
     * recurrent tick). Runs of consecutive Sum nodes accumulate in
     * lockstep, each node's chain in its own CSR order.
     */
    template <NumericsTier kTier>
    void activateSpan(LayerSpan span, const double *rd, double *wr,
                      std::vector<double> &weighted) const;

    /** Lane-width switch of activateBatch for one numerics tier. */
    template <NumericsTier kTier>
    void activateBatchDispatch(int lanes, const uint8_t *activeLanes,
                               BatchScratch &scratch) const;

    /**
     * The batched kernel body, specialized on a compile-time lane
     * count (kLanes > 0) so the per-edge lane loop fully unrolls and
     * vectorizes without per-edge trip-count setup; kLanes == 0 is
     * the any-width fallback reading the runtime `lanes`. kTier
     * selects the activation step: reference libm (masked per lane)
     * or the branch-free hw approximation + Limit & Quantize, which
     * vectorizes across the lane dimension.
     */
    template <int kLanes, NumericsTier kTier>
    void activateBatchImpl(int lanes, const uint8_t *activeLanes,
                           BatchScratch &scratch) const;

    /**
     * Full post-compile structure walk (checked builds only): CSR
     * edge offsets monotone and covering the edge arrays, every edge
     * source and node/output slot inside [0, numSlots), layer spans
     * contiguous and covering every node. Runs once per compile, so
     * its O(edges) cost never touches the activate hot path.
     */
    void dcheckCompiled(const char *what) const;

    int numInputs_ = 0;
    int numOutputs_ = 0;
    int numSlots_ = 0;
    long macs_ = 0;
    bool recurrent_ = false;
    NumericsTier tier_ = NumericsTier::Reference;

    // Per-node tables, structure-of-arrays in execution order.
    std::vector<neat::Activation> activation_;
    std::vector<neat::Aggregation> aggregation_;
    std::vector<double> bias_;
    std::vector<double> response_;
    /** Destination value slot of each node. */
    std::vector<int32_t> nodeSlot_;

    // CSR edge arrays: node n reads edges
    // [edgeOffset_[n], edgeOffset_[n+1]).
    std::vector<int32_t> edgeOffset_; // numNodes + 1 entries
    /**
     * Source value slot per edge. Sum-aggregated nodes carry only
     * resolvable sources (the interpreters' fast paths skip the rest,
     * so dropping them at compile time is bit-identical and keeps the
     * inner loop branch-free in practice); other aggregations keep a
     * -1 sentinel per out-of-graph source, which contributes an
     * explicit 0-valued operand exactly like the interpreters.
     */
    std::vector<int32_t> edgeSrc_;
    std::vector<double> edgeWeight_;

    std::vector<LayerSpan> layerSpans_;
    /** Value slot of each output key; -1 when unreachable (reads 0). */
    std::vector<int32_t> outputSlot_;

    InferenceSchedule schedule_;
};

} // namespace genesys::nn

#endif // GENESYS_NN_COMPILED_PLAN_HH
