#include "core/run_digest.hh"

#include <bit>

namespace genesys::oracle
{

void
fold(uint64_t &h, uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ull;
    }
}

void
fold(uint64_t &h, double v)
{
    fold(h, std::bit_cast<uint64_t>(v));
}

uint64_t
digestFields(const core::RunSummary &s,
             const std::vector<core::GenerationReport> &reports)
{
    uint64_t h = 0xcbf29ce484222325ull; // FNV offset basis
    fold(h, static_cast<uint64_t>(s.solved));
    fold(h, static_cast<uint64_t>(s.generations));
    fold(h, s.bestFitness);
    fold(h, s.totalEvolutionEnergyJ);
    fold(h, s.totalInferenceEnergyJ);
    fold(h, s.totalEvolutionSeconds);
    fold(h, s.totalInferenceSeconds);
    for (const core::GenerationReport &r : reports) {
        fold(h, r.algo.bestFitness);
        fold(h, r.algo.meanFitness);
        fold(h, static_cast<uint64_t>(r.algo.evolutionOps));
        fold(h, static_cast<uint64_t>(r.inferenceSteps));
        fold(h, static_cast<uint64_t>(r.maxEpisodeSteps));
        fold(h, r.macsPerStep);
        fold(h, r.compactCellsPerGenome);
        fold(h, r.sparseCellsPerGenome);
        fold(h, static_cast<uint64_t>(r.hw.eve.cycles));
        fold(h, static_cast<uint64_t>(r.hw.adam.cycles));
        fold(h, r.hw.evolutionEnergyJ);
        fold(h, r.hw.inferenceEnergyJ);
    }
    return h;
}

} // namespace genesys::oracle
