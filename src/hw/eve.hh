/**
 * @file
 * EvE top level: trace-driven performance/energy simulation of one
 * generation of evolution on the PE array. This is the paper's own
 * methodology — the NEAT run emits a reproduction trace, and the
 * hardware model replays it ("These traces serve as proxy for our
 * workloads when we evaluate EVE and ADAM implementations",
 * Section VI-A). Drives Figs 9(c,d) and 11(b,c).
 */

#ifndef GENESYS_HW_EVE_HH
#define GENESYS_HW_EVE_HH

#include <vector>

#include "hw/noc.hh"
#include "hw/sram.hh"

namespace genesys::hw
{

/**
 * Gene Split's greedy PE allocation: children are grouped so that
 * children of the same parents land in the same wave ("The PE
 * allocation is done with a greedy policy, such that maximum number of
 * children can be created from the parents currently in the SRAM",
 * Section IV-C5). Returns waves of indices into trace.children
 * (elites excluded — they never enter EvE).
 */
std::vector<std::vector<size_t>>
allocateWaves(const neat::EvolutionTrace &trace, int num_pe);

/** Performance/energy results for one generation on EvE. */
struct EveGenStats
{
    long cycles = 0;
    int waves = 0;
    long childrenBred = 0;

    long sramReads = 0;
    long sramWrites = 0;
    long geneDeliveries = 0;
    long peOps = 0;
    long dramBytes = 0;

    /** Demanded SRAM reads per compute cycle (Fig 11(b) y-axis). */
    double readsPerCycle = 0.0;
    /** Active PE-cycles over available PE-cycles. */
    double peUtilization = 0.0;

    double sramEnergyJ = 0.0;
    double peEnergyJ = 0.0;
    double nocEnergyJ = 0.0;
    double dramEnergyJ = 0.0;

    double
    totalEnergyJ() const
    {
        return sramEnergyJ + peEnergyJ + nocEnergyJ + dramEnergyJ;
    }

    double
    runtimeSeconds(double frequency_hz) const
    {
        return static_cast<double>(cycles) / frequency_hz;
    }
};

/** Trace-driven EvE array simulator. */
class EveEngine
{
  public:
    EveEngine(const SocParams &soc, const EnergyModel &energy)
        : soc_(soc), energy_(energy),
          buffer_(soc.sramKiB, soc.sramBanks)
    {
    }

    /**
     * Replay one generation's reproduction trace.
     * `generation_bytes` is the resident size of the parent
     * generation (for DRAM-spill accounting); pass 0 to derive it
     * from the trace.
     */
    EveGenStats simulateGeneration(const neat::EvolutionTrace &trace,
                                   long generation_bytes = 0) const;

  private:
    SocParams soc_;
    const EnergyModel &energy_;
    GenomeBuffer buffer_;
};

} // namespace genesys::hw

#endif // GENESYS_HW_EVE_HH
