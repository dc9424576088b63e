/**
 * @file
 * Branchy reference forms of the gene-stream kernels. Test-only
 * oracle: the library's Genome::crossoverInto, Genome::perturb and
 * Genome::distance pick attributes through bit masks, branch once per
 * float attribute and count the aligned stream in crossover's own
 * merge. These are the straightforward forms they replaced, one `?:`
 * per random draw and two extra key merges per child, and the
 * gene-kernel fuzz checks the library against them bit for bit: same
 * child genes, same counts, same aligned length, same RNG state
 * after every call and the same distance.
 */

#ifndef GENESYS_ORACLE_NEAT_GENE_KERNELS_HH
#define GENESYS_ORACLE_NEAT_GENE_KERNELS_HH

#include <cstddef>

#include "common/rng.hh"
#include "neat/genome.hh"

namespace genesys::neat::oracle
{

/** NodeGene::crossover: one `?:` per attribute draw. */
NodeGene crossover(const NodeGene &self, const NodeGene &other,
                   XorWow &rng, double bias_toward_self = 0.5);

/** ConnectionGene::crossover: the weight draw, then the enabled draw. */
ConnectionGene crossover(const ConnectionGene &self,
                         const ConnectionGene &other, XorWow &rng,
                         double bias_toward_self = 0.5);

/**
 * Genome::crossoverInto: parent1 (the fitter parent) drives the
 * merge, homologous genes pick each attribute with a `?:` on its own
 * uniform draw, parent1-only genes are cloned. Returns the aligned
 * stream length, |parent1 keys ∪ parent2 keys|, counted by two
 * separate merges.
 */
size_t crossoverInto(Genome &child, const Genome &parent1,
                     const Genome &parent2, XorWow &rng,
                     MutationCounts *counts = nullptr);

/**
 * The attribute perturbation pass of Genome::mutate: every node gene,
 * then every connection gene, in key order. Returns the gene-ops.
 */
long perturb(Genome &genome, const NeatConfig &cfg, XorWow &rng);

/** Genome::distance: homologous distance plus disjoint count. */
double distance(const Genome &a, const Genome &b, const NeatConfig &cfg);

} // namespace genesys::neat::oracle

#endif // GENESYS_ORACLE_NEAT_GENE_KERNELS_HH
