/**
 * @file
 * NEAT genome: a collection of node and connection genes uniquely
 * describing one neural network in the population (Fig 3(c)), plus
 * the four reproduction operations of Fig 3(d): crossover and the
 * perturb / add-gene / delete-gene mutations.
 */

#ifndef GENESYS_NEAT_GENOME_HH
#define GENESYS_NEAT_GENOME_HH

#include <optional>
#include <vector>

#include "common/rng.hh"
#include "neat/flat_gene_map.hh"
#include "neat/gene.hh"

namespace genesys::neat
{

/** Flat, key-sorted node gene storage (ascending node key). */
using NodeGeneMap = FlatGeneMap<int, NodeGene>;
/** Flat, key-sorted connection gene storage (ascending (src, dst)). */
using ConnGeneMap = FlatGeneMap<ConnKey, ConnectionGene>;

/**
 * Issues fresh node ids. Shared across a population so node ids are
 * globally unique within a run, which keeps crossover alignment
 * meaningful (two genomes carrying node 7 inherited it from a common
 * ancestor). neat-python implements the same thing as
 * `genome_config.node_indexer`.
 */
class NodeIndexer
{
  public:
    explicit NodeIndexer(int first_key = 0) : nextKey_(first_key) {}

    /** Get a fresh, never-before-issued node key. */
    int next() { return nextKey_++; }

    /** Make sure future keys are strictly greater than `key`. */
    void
    bump(int key)
    {
        if (key >= nextKey_)
            nextKey_ = key + 1;
    }

    int peek() const { return nextKey_; }

    /**
     * Snapshot restore: future keys resume exactly at `next_key`
     * (persist::* saves peek() and hands it back here, so a resumed
     * run issues the same node ids the uninterrupted run would).
     */
    void restore(int next_key) { nextKey_ = next_key; }

  private:
    int nextKey_;
};

/**
 * Per-child operation counts, recorded during reproduction. These are
 * the events Fig 5(a) plots and the units of work the EvE hardware
 * model replays (one gene-op per PE per cycle).
 */
struct MutationCounts
{
    /** Homologous gene-pairs crossed over (per-attribute select). */
    long crossoverOps = 0;
    /** Disjoint/excess genes cloned from the fitter parent. */
    long cloneOps = 0;
    /** Genes that went through attribute perturbation. */
    long perturbOps = 0;
    /** Structural gene additions (node adds count the 2 new conns too). */
    long addOps = 0;
    /** Structural gene deletions (node deletes count pruned conns). */
    long deleteOps = 0;

    long
    total() const
    {
        return crossoverOps + cloneOps + perturbOps + addOps + deleteOps;
    }

    MutationCounts &operator+=(const MutationCounts &o);
};

/**
 * One individual: node genes (hidden + output neurons) and connection
 * genes. Input "nodes" use negative keys -1..-numInputs and appear
 * only as connection sources (neat-python convention).
 */
class Genome
{
  public:
    Genome() = default;
    explicit Genome(int key) : key_(key) {}

    // --- identity / fitness ------------------------------------------------
    int key() const { return key_; }
    void setKey(int k) { key_ = k; }

    bool hasFitness() const { return fitness_.has_value(); }
    double fitness() const { return fitness_.value(); }
    void setFitness(double f) { fitness_ = f; }
    void clearFitness() { fitness_.reset(); }

    // --- gene access -----------------------------------------------------
    // Flat SoA storage, iterated in ascending key order (the order the
    // old std::map storage provided — evolution is bit-identical).
    const NodeGeneMap &nodes() const { return nodes_; }
    const ConnGeneMap &connections() const { return connections_; }
    NodeGeneMap &mutableNodes() { return nodes_; }
    ConnGeneMap &mutableConnections() { return connections_; }

    size_t numNodeGenes() const { return nodes_.size(); }
    size_t numConnectionGenes() const { return connections_.size(); }
    size_t numGenes() const { return nodes_.size() + connections_.size(); }
    size_t numEnabledConnections() const;

    /**
     * On-chip storage footprint: each gene is one 64-bit word in the
     * Genome Buffer (Fig 6 encoding).
     */
    size_t memoryBytes() const { return numGenes() * 8; }

    /** Input node keys for a config: -1 .. -numInputs. */
    static std::vector<int> inputKeys(const NeatConfig &cfg);
    /** Output node keys for a config: 0 .. numOutputs-1. */
    static std::vector<int> outputKeys(const NeatConfig &cfg);

    // --- construction -----------------------------------------------------
    /**
     * Create a generation-0 genome: output (+ optional hidden) node
     * genes, every input connected to every output (and every hidden
     * node wired from every input and to every output), with weights
     * drawn from the init distribution (Section III-B).
     */
    static Genome createNew(int key, const NeatConfig &cfg,
                            NodeIndexer &indexer, XorWow &rng);

    /**
     * Sexual reproduction (Fig 3(d) "Crossover"): homologous genes do
     * per-attribute uniform selection; disjoint/excess genes are
     * inherited from the fitter parent. `parent1` must be the fitter
     * parent (ties broken by the caller).
     */
    static Genome crossover(int child_key, const Genome &parent1,
                            const Genome &parent2, XorWow &rng,
                            MutationCounts *counts = nullptr);

    /**
     * crossover() into a caller-constructed child with no genes yet,
     * which keeps whatever capacity the caller reserved in its gene
     * arrays (reproduction reserves on the thread that will own the
     * genome, then breeds on a worker). Returns the aligned stream
     * length: the size of the union of both parents' gene keys, which
     * the same merge counts.
     */
    static size_t crossoverInto(Genome &child, const Genome &parent1,
                                const Genome &parent2, XorWow &rng,
                                MutationCounts *counts = nullptr);

    // --- mutation -----------------------------------------------------------
    /**
     * Apply the configured structural and attribute mutations in
     * place. Returns the operation counts for tracing.
     */
    MutationCounts mutate(const NeatConfig &cfg, NodeIndexer &indexer,
                          XorWow &rng);

    /**
     * Attribute perturbation pass over every gene, node genes first,
     * then connection genes (Fig 3(d) "Mutation: Perturb"); the last
     * step of mutate(). Returns the gene-ops, one per gene.
     */
    long perturb(const NeatConfig &cfg, XorWow &rng);

    /**
     * Split a random enabled connection with a new node (Fig 3(d)
     * "Mutation: Add Gene" for nodes). Returns the new node key, or
     * -1 if no connection was available.
     */
    int mutateAddNode(const NeatConfig &cfg, NodeIndexer &indexer,
                      XorWow &rng);

    /**
     * Add a random new connection honoring the feed-forward
     * constraint. Returns true if a connection was added.
     */
    bool mutateAddConnection(const NeatConfig &cfg, XorWow &rng);

    /**
     * Delete a random hidden node and its incident connections
     * (Fig 3(d) "Mutation: Delete Gene"). Never deletes outputs.
     * Returns the number of genes removed (node + pruned
     * connections), 0 if no hidden node exists.
     */
    long mutateDeleteNode(const NeatConfig &cfg, XorWow &rng);

    /** Delete a random connection gene. Returns 1 if one was removed. */
    long mutateDeleteConnection(XorWow &rng);

    /**
     * Renumber the nodes this genome drew from a child-local indexer
     * (every node key >= `first_local`) to fresh keys from `indexer`,
     * in ascending order, rewriting the connections that touch them.
     * All other keys are below `first_local` and the fresh keys are
     * at least `first_local`, so the order of every key array is
     * unchanged. Returns the number of keys issued.
     */
    int renumberNewNodes(int first_local, NodeIndexer &indexer);

    // --- compatibility ---------------------------------------------------------
    /**
     * Genomic compatibility distance (Section II-D "Speciation"):
     * normalized homologous attribute distance plus
     * disjoint-gene count, over node and connection genes.
     */
    double distance(const Genome &other, const NeatConfig &cfg) const;

    // --- invariants -----------------------------------------------------------
    /**
     * Check structural invariants: connection endpoints exist, no
     * dangling references, no output-node inputs keys, acyclic when
     * feed-forward (one topological pass over every stored
     * connection, reporting the offending edge). Throws (panics) on
     * violation.
     */
    void validate(const NeatConfig &cfg) const;

    /**
     * Would adding connection `test` create a cycle in the directed
     * graph formed by `connections`? Used to maintain the
     * feed-forward invariant (neat-python's creates_cycle).
     */
    static bool createsCycle(const ConnGeneMap &connections, ConnKey test);

    /** Node deletions applied to this genome since its creation. */
    int nodeDeletions() const { return nodeDeletions_; }

    /**
     * Snapshot restore for the deletion counter (it gates the EvE
     * liveness threshold, so a rebuilt genome must carry it or a
     * resumed run could delete nodes the uninterrupted run refused).
     */
    void restoreNodeDeletions(int n) { nodeDeletions_ = n; }

  private:
    /**
     * Node deletion guarded by the EvE liveness threshold
     * (cfg.maxNodeDeletionsPerChild). Returns genes removed.
     */
    long deleteNodeIfAllowed(const NeatConfig &cfg, XorWow &rng);

    int key_ = -1;
    NodeGeneMap nodes_;
    ConnGeneMap connections_;
    std::optional<double> fitness_;
    /** Counter backing the EvE Delete Gene Engine liveness threshold. */
    int nodeDeletions_ = 0;
};

} // namespace genesys::neat

#endif // GENESYS_NEAT_GENOME_HH
