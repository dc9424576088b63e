/**
 * @file
 * Feed-forward interpreter phenotype: builds an evaluable network
 * from a genome. Test-only oracle: the library runs every genome as
 * an nn::CompiledPlan, and the differential suites check each plan
 * against this interpreter bit for bit, in both numerics tiers. The
 * interpreter evaluates one node at a time and shares no tile layout
 * with the plan, so it checks the plan's lowering as well as its
 * kernel.
 *
 * NEAT genomes are irregular acyclic graphs, so inference "is
 * basically processing an acyclic directed graph" (Section III-C2).
 * The network is organized into topological layers of simultaneously
 * ready vertices — the same structure ADAM's vectorize routine packs
 * into matrix-vector products.
 */

#ifndef GENESYS_NN_FEEDFORWARD_HH
#define GENESYS_NN_FEEDFORWARD_HH

#include <map>
#include <set>
#include <vector>

#include "neat/genome.hh"
#include "nn/levelize.hh"
#include "nn/numerics.hh"

namespace genesys::nn
{

using neat::Genome;
using neat::NeatConfig;

/**
 * The interpreters' numerics, one value at a time. Reference leaves
 * attributes and inputs as they are and activates through libm.
 * HwFaithful rounds attributes (bias, response, weight) through the
 * Q6.10 gene codec, latches inputs through hwact::hwQuantizer() and
 * activates through hwact::activateQuantized — the plan's hw lowering
 * rebuilt without its tiles, so a plan and an interpreter of one tier
 * must agree bit for bit.
 */
double tierAttribute(double v, NumericsTier tier);
double tierInput(double x, NumericsTier tier);
double tierActivate(neat::Activation a, double x, NumericsTier tier);

/** Evaluation record for one vertex (node) of the graph. */
struct NodeEval
{
    int key = 0;
    neat::Activation activation = neat::Activation::Sigmoid;
    neat::Aggregation aggregation = neat::Aggregation::Sum;
    double bias = 0.0;
    double response = 1.0;
    /** (source node key, weight) of every enabled inbound edge. */
    std::vector<std::pair<int, double>> links;
    /** Dense value-slot of this node (filled by create()). */
    int slot = -1;
    /** (source slot, weight) pairs — the fast evaluation path. */
    std::vector<std::pair<int, double>> slotLinks;
};

/**
 * Combined result of the two graph walks every phenotype consumer
 * needs: the required-node set (backward reachability from the
 * outputs) and the topological layering of those nodes. Computed
 * together from one adjacency build so FeedForwardNetwork::create and
 * levelize() each pay for the analysis exactly once.
 * CompiledPlan::compile runs the same walks over its dense arrays.
 */
struct GenomeAnalysis
{
    /** Nodes on some enabled path to an output (required_for_output). */
    std::set<int> required;
    /**
     * Topological layers of the required nodes: layer i holds nodes
     * whose inputs are all available after layers < i, ascending key
     * order within a layer (neat-python feed_forward_layers). Nodes
     * with no enabled inbound edge — and anything downstream of a
     * cycle — never become ready and are excluded.
     */
    std::vector<std::vector<int>> layers;
};

/** Run both graph walks over `genome` in one pass. */
GenomeAnalysis analyzeGenome(const Genome &genome, const NeatConfig &cfg);

/**
 * Nodes required to compute the outputs: every node on some
 * enabled-connection path to an output (neat-python
 * required_for_output). Convenience wrapper over analyzeGenome().
 */
std::set<int> requiredForOutput(const Genome &genome,
                                const NeatConfig &cfg);

/**
 * Topological layering of the required nodes: layer i contains nodes
 * whose inputs are all available after layers < i (neat-python
 * feed_forward_layers). Only enabled connections participate.
 * Convenience wrapper over analyzeGenome().
 */
std::vector<std::vector<int>> feedForwardLayers(const Genome &genome,
                                                const NeatConfig &cfg);

/** An evaluable feed-forward network. */
class FeedForwardNetwork
{
  public:
    /** Build the phenotype of `genome` under `tier`'s numerics. */
    static FeedForwardNetwork
    create(const Genome &genome, const NeatConfig &cfg,
           NumericsTier tier = NumericsTier::Reference);

    /**
     * Evaluate: `inputs.size()` must equal numInputs. Returns the
     * numOutputs output activations. Unreachable outputs read 0.
     */
    std::vector<double> activate(const std::vector<double> &inputs) const;

    const std::vector<std::vector<int>> &layers() const { return layers_; }
    size_t numInputs() const { return static_cast<size_t>(numInputs_); }
    size_t numOutputs() const { return static_cast<size_t>(numOutputs_); }

    /** Multiply-accumulates per single activate() call. */
    long macsPerInference() const;

  private:
    int numInputs_ = 0;
    int numOutputs_ = 0;
    NumericsTier tier_ = NumericsTier::Reference;
    std::vector<std::vector<int>> layers_;
    std::vector<NodeEval> evals_; // in layer order
    /** Dense value slots: inputs, then evaluated nodes. */
    int numSlots_ = 0;
    /** Slot of each output key (-1 when unreachable). */
    std::vector<int> outputSlots_;
};

/**
 * Build the packed ADAM schedule of a genome from its analyzeGenome
 * layers: the reference for CompiledPlan::schedule().
 */
InferenceSchedule levelize(const Genome &genome, const NeatConfig &cfg);

} // namespace genesys::nn

#endif // GENESYS_NN_FEEDFORWARD_HH
