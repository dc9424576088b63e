#include "hw/soc.hh"

namespace genesys::hw
{

SocGenStats
GenesysSoc::simulateGeneration(
    const neat::EvolutionTrace &trace,
    const std::vector<GenomeInferenceWork> &inference,
    long generation_bytes) const
{
    SocGenStats s;

    // --- inference phase (steps 1-5 of the walkthrough) --------------------
    // Population-batched on the systolic array (PLP, Table III).
    s.adam = adam_.simulatePopulation(inference);

    const double freq = soc_.frequencyHz;
    s.inferenceComputeSeconds =
        static_cast<double>(s.adam.cycles + s.adam.vectorizeCycles) / freq;

    // Data movement between the Genome Buffer and the array, at the
    // banked SRAM's bandwidth (one word per bank per cycle): weight
    // matrices once per generation plus byte-packed observations in
    // and actions out every step. All of it stays on chip, which is
    // why GENESYS' transfer share is small (~15%, Fig 10(c)) and its
    // absolute runtime is orders of magnitude below the GPUs'
    // (Section VI-B).
    const double words_per_cycle =
        static_cast<double>(soc_.sramBanks);
    s.toAdamSeconds =
        static_cast<double>(s.adam.sramReads) / words_per_cycle / freq;
    s.fromAdamSeconds =
        static_cast<double>(s.adam.outputWords) / words_per_cycle / freq;

    s.inferenceEnergyJ = s.adam.totalEnergyJ(energyModel_);

    // --- evolution phase (steps 7-10) ------------------------------------------
    s.eve = eve_.simulateGeneration(trace, generation_bytes);
    s.evolutionSeconds = s.eve.runtimeSeconds(freq);
    s.evolutionEnergyJ = s.eve.totalEnergyJ();
    return s;
}

} // namespace genesys::hw
