/**
 * @file
 * Functional + cycle model of one EvE processing element (Fig 7):
 * a four-stage pipeline — Crossover Engine, Perturbation Engine,
 * Delete Gene Engine, Add Gene Engine — fed one aligned parent gene
 * pair per cycle by the Gene Split unit and an 8-bit random number
 * per cycle by the shared XOR-WOW PRNG.
 *
 * Note on semantics: the hardware applies structural mutation
 * probabilities *per arriving gene* (Section IV-C3), whereas software
 * NEAT applies them *per child genome*. peConfigFrom() therefore
 * scales the per-child probabilities by the expected stream length so
 * the expected op counts match the software substrate.
 */

#ifndef GENESYS_HW_EVE_PE_HH
#define GENESYS_HW_EVE_PE_HH

#include <set>
#include <vector>

#include "hw/gene_encoding.hh"

namespace genesys::hw
{

/** Probabilities and bounds programmed into a PE (config regs). */
struct PeConfig
{
    /** Crossover parent-select bias (default 0.5; programmable). */
    double crossoverBias = 0.5;
    /** Per-attribute perturbation probability. */
    double perturbProb = 0.8;
    /** Perturbation magnitude (value domain). */
    double perturbPower = 0.5;
    /** Per-gene structural probabilities (see file comment). */
    double nodeDeleteProb = 0.0;
    double connDeleteProb = 0.0;
    double nodeAddProb = 0.0;
    double connAddProb = 0.0;
    /** Delete Gene Engine liveness threshold (Section IV-C3). */
    int maxNodeDeletions = 2;
    /** Saturation bounds for Limit & Quantize. */
    double attrMin = -30.0;
    double attrMax = 30.0;
};

/**
 * Derive a PE configuration from the software NEAT config:
 * per-child structural probabilities are spread over the expected
 * gene stream length.
 */
PeConfig peConfigFrom(const neat::NeatConfig &cfg,
                      size_t expected_stream_len);

/** One aligned stream element from the Gene Split unit. */
struct GenePair
{
    PackedGene parent1;
    PackedGene parent2;
    /** False for disjoint genes present only in parent 1. */
    bool hasParent2 = false;
};

/**
 * Gene Split's stream alignment (Section IV-C4): key-align two packed
 * parent streams (each organized nodes-first, ascending ids) so the
 * Crossover Engine always sees matching gene pairs. The output
 * contains one GenePair per gene of parent 1 — homologous pairs where
 * parent 2 carries the same key, singletons otherwise. Parent-2-only
 * (disjoint) genes are read and discarded by the aligner, which costs
 * stream cycles but produces no pair; `cycles_out` (if non-null)
 * receives the union length.
 */
std::vector<GenePair> alignStreams(const std::vector<PackedGene> &parent1,
                                   const std::vector<PackedGene> &parent2,
                                   const GeneCodec &codec,
                                   long *cycles_out = nullptr);

/** Output of processing one child genome. */
struct PeChildResult
{
    std::vector<PackedGene> childGenes;
    /** Cycles consumed: 2 header + stream + add-stalls + drain. */
    long cycles = 0;
    neat::MutationCounts ops;
    /** Node ids deleted by the Delete Gene Engine. */
    std::vector<int> deletedNodes;
};

/**
 * One EvE PE. Deterministic given the PRNG seed; every stochastic
 * decision consumes XOR-WOW output, as in the silicon.
 */
class EvePe
{
  public:
    EvePe(const GeneCodec &codec, PeConfig cfg, uint64_t prng_seed);

    /**
     * Process a complete aligned gene stream (node genes first, then
     * connection genes — the required streaming order of Section
     * IV-C5) into a child gene stream.
     */
    PeChildResult processChild(const std::vector<GenePair> &stream);

    const PeConfig &config() const { return cfg_; }

  private:
    // --- the four pipeline stages -----------------------------------------
    PackedGene crossoverStage(const GenePair &in, neat::MutationCounts &ops);
    PackedGene perturbStage(PackedGene g, neat::MutationCounts &ops);
    /** Returns false if the gene is deleted. */
    bool deleteStage(PackedGene g, neat::MutationCounts &ops);
    /** May emit extra genes (node split / new connection). */
    void addStage(PackedGene g, std::vector<PackedGene> &out,
                  neat::MutationCounts &ops, long &extra_cycles);

    double randUnit() { return prng_.next8() / 256.0; }
    double
    randSigned()
    {
        return (static_cast<int>(prng_.next8()) - 128) / 128.0;
    }

    const GeneCodec &codec_;
    PeConfig cfg_;
    XorWow prng_;

    // Node ID registers (Fig 7): deleted ids, max id, pending source.
    std::set<int> deletedIds_;
    std::set<int> liveNodeIds_;
    int maxNodeId_ = 0;
    int nodeDeletions_ = 0;
    bool havePendingSrc_ = false;
    int pendingSrc_ = 0;
};

} // namespace genesys::hw

#endif // GENESYS_HW_EVE_PE_HH
