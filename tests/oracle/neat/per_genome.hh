/**
 * @file
 * Per-genome fitness for tests. Population::stepBatch takes one
 * callback shape, the whole unevaluated generation at once; most
 * tests score genomes one by one. perGenome adapts such a function to
 * the batched shape, scoring the batch in order on the calling
 * thread.
 */

#ifndef GENESYS_ORACLE_NEAT_PER_GENOME_HH
#define GENESYS_ORACLE_NEAT_PER_GENOME_HH

#include <utility>
#include <vector>

#include "neat/population.hh"

namespace genesys::neat::oracle
{

/** Wrap `fitness(const Genome &) -> double` as a BatchFitnessFn. */
template <typename Fn>
Population::BatchFitnessFn
perGenome(Fn fitness)
{
    return [fitness = std::move(fitness)](
               const std::vector<GenomeHandle> &batch) {
        std::vector<double> out;
        out.reserve(batch.size());
        for (const GenomeHandle &h : batch)
            out.push_back(fitness(*h.genome));
        return out;
    };
}

} // namespace genesys::neat::oracle

#endif // GENESYS_ORACLE_NEAT_PER_GENOME_HH
