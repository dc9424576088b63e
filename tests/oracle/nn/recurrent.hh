/**
 * @file
 * Recurrent phenotype: evaluates genomes whose graphs may contain
 * cycles (NeatConfig::feedForward == false). Standard NEAT recurrent
 * semantics: every activate() advances the network one tick — each
 * node reads its inputs' values from the *previous* tick, so cycles
 * are well-defined and the network carries state across steps.
 *
 * The paper's experiments use feed-forward genomes; recurrent support
 * is the natural extension for partially-observable environments.
 *
 * This interpreter is a test-only *reference implementation*: the
 * library lowers recurrent genomes to flat plans
 * (nn::CompiledPlan::compileFor with feedForward == false) that must
 * match it bit for bit, which tests/test_recurrent_plan.cc fuzzes — the same role
 * FeedForwardNetwork plays for feed-forward plans.
 */

#ifndef GENESYS_NN_RECURRENT_HH
#define GENESYS_NN_RECURRENT_HH

#include "nn/feedforward.hh"

namespace genesys::nn
{

/** A stateful recurrent network. */
class RecurrentNetwork
{
  public:
    /** Build the phenotype of `genome` (cycles allowed) under
     *  `tier`'s numerics (see tierActivate). */
    static RecurrentNetwork
    create(const Genome &genome, const NeatConfig &cfg,
           NumericsTier tier = NumericsTier::Reference);

    /**
     * Advance one tick: latch `inputs`, update every node from the
     * previous tick's values, return the output activations.
     */
    std::vector<double> activate(const std::vector<double> &inputs);

    /** Clear all node state (start of an episode). */
    void reset();

    size_t numInputs() const { return static_cast<size_t>(numInputs_); }
    size_t numOutputs() const
    {
        return static_cast<size_t>(numOutputs_);
    }
    long macsPerInference() const;

  private:
    int numInputs_ = 0;
    int numOutputs_ = 0;
    NumericsTier tier_ = NumericsTier::Reference;
    std::vector<NodeEval> evals_;
    std::vector<int> outputSlots_;
    int numSlots_ = 0;
    /** Double-buffered node values (previous / current tick). */
    std::vector<double> prev_;
    std::vector<double> curr_;
};

} // namespace genesys::nn

#endif // GENESYS_NN_RECURRENT_HH
