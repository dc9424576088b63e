/**
 * @file
 * The GeneSys SoC (Fig 6): EvE + ADAM + Genome Buffer + System CPU,
 * simulated at generation granularity. Produces the runtime/energy
 * numbers behind Figs 9, 10(c) and 11(c).
 */

#ifndef GENESYS_HW_SOC_HH
#define GENESYS_HW_SOC_HH

#include <utility>
#include <vector>

#include "hw/adam.hh"
#include "hw/eve.hh"

namespace genesys::hw
{

/** One generation's results on the SoC. */
struct SocGenStats
{
    EveGenStats eve;
    AdamStats adam;

    // --- runtime (seconds) --------------------------------------------------
    double evolutionSeconds = 0.0;
    double inferenceComputeSeconds = 0.0;
    /** Scratchpad -> ADAM operand movement (Fig 10(c)). */
    double toAdamSeconds = 0.0;
    /** ADAM -> scratchpad result movement (Fig 10(c)). */
    double fromAdamSeconds = 0.0;

    double
    inferenceSeconds() const
    {
        return inferenceComputeSeconds + toAdamSeconds + fromAdamSeconds;
    }

    // --- energy (joules) -----------------------------------------------------
    double evolutionEnergyJ = 0.0;
    double inferenceEnergyJ = 0.0;

    /** Fraction of inference time spent moving data (Fig 10(c)). */
    double
    transferFraction() const
    {
        const double t = inferenceSeconds();
        return t > 0.0 ? (toAdamSeconds + fromAdamSeconds) / t : 0.0;
    }
};

/** The full SoC simulator. */
class GenesysSoc
{
  public:
    explicit GenesysSoc(SocParams soc = {}, EnergyParams energy = {})
        : soc_(soc), energyModel_(energy), eve_(soc_, energyModel_),
          adam_(soc_)
    {
    }

    /**
     * Simulate one generation: inference of the whole population on
     * ADAM (population-level parallelism: genomes stream through the
     * array back to back) followed by reproduction on EvE.
     */
    SocGenStats
    simulateGeneration(const neat::EvolutionTrace &trace,
                       const std::vector<GenomeInferenceWork> &inference,
                       long generation_bytes = 0) const;

  private:
    SocParams soc_;
    EnergyModel energyModel_;
    EveEngine eve_;
    AdamEngine adam_;
};

} // namespace genesys::hw

#endif // GENESYS_HW_SOC_HH
