/**
 * @file
 * ADAM — Accelerator for Dense Addition & Multiplication
 * (Section IV-D): a systolic array of MAC units evaluating the
 * irregular NEAT graphs as packed matrix-vector products, with the
 * System CPU's vectorize routine gathering ready node values into
 * dense input vectors.
 */

#ifndef GENESYS_HW_ADAM_HH
#define GENESYS_HW_ADAM_HH

#include "hw/energy_model.hh"
#include "nn/levelize.hh"

namespace genesys::hw
{

/** Timing/energy results for one packed layer. */
struct AdamLayerStats
{
    long cycles = 0;
    /** CPU cycles to gather the input vector (serial). */
    long vectorizeCycles = 0;
    long usefulMacs = 0;
    /** MAC slots occupied including padding zeros. */
    long arrayMacs = 0;

    double
    utilization() const
    {
        return arrayMacs > 0 ? static_cast<double>(usefulMacs) /
                                   static_cast<double>(arrayMacs)
                             : 0.0;
    }
};

/** Inference work for one genome: schedule + forward passes run. */
struct GenomeInferenceWork
{
    nn::InferenceSchedule schedule;
    long inferences = 1;
};

/** Aggregated over a genome (one forward pass) or a population. */
struct AdamStats
{
    long cycles = 0;
    long vectorizeCycles = 0;
    long usefulMacs = 0;
    long arrayMacs = 0;
    long sramReads = 0;  ///< weight + input words fetched
    long sramWrites = 0; ///< output vertex values written back
    long layers = 0;
    /** Observation words streamed into the array per generation. */
    long inputWords = 0;
    /** Action/output words streamed back per generation. */
    long outputWords = 0;

    double
    utilization() const
    {
        return arrayMacs > 0 ? static_cast<double>(usefulMacs) /
                                   static_cast<double>(arrayMacs)
                             : 0.0;
    }

    AdamStats &operator+=(const AdamStats &o);

    double macEnergyJ(const EnergyModel &e) const;
    double sramEnergyJ(const EnergyModel &e) const;
    double cpuEnergyJ(const EnergyModel &e) const;
    double totalEnergyJ(const EnergyModel &e) const;

    /** Total engine cycles: vectorize overlaps all but first layer. */
    long
    totalCycles() const
    {
        return cycles + vectorizeCycles;
    }
};

/** Trace-driven systolic-array model. */
class AdamEngine
{
  public:
    explicit AdamEngine(const SocParams &soc) : soc_(soc) {}

    /**
     * One packed M x K matrix-vector product on the R x C array:
     * ceil(M/R) x ceil(K/C) tiles, each streaming its K-slice plus
     * array fill/drain.
     */
    AdamLayerStats simulateLayer(const nn::PackedLayer &layer) const;

    /** One forward pass of one genome. */
    AdamStats simulateGenome(const nn::InferenceSchedule &sched) const;

    /**
     * A whole generation's inference: `inferences` forward passes of
     * the given schedule (weights are reused across passes within a
     * generation; inputs are re-gathered every pass). Serial
     * (one-genome-at-a-time) mode.
     */
    AdamStats simulateInference(const nn::InferenceSchedule &sched,
                                long inferences) const;

    /**
     * Population-batched generation inference — how GENESYS actually
     * runs (Table III: inference exploits PLP). Every environment
     * step, the vectorize routine packs ready vertices from *all*
     * live genomes into shared input vectors, so the array retires
     * close to its peak useful MAC rate; the pack indices are built
     * once per generation ("the vectorize routine also generates
     * weight matrices ... every time a new generation is spawned",
     * Section IV-A). Observations stream in byte-packed (the Atari
     * state *is* bytes); only output vertices stream back.
     */
    AdamStats
    simulatePopulation(const std::vector<GenomeInferenceWork> &work) const;

    /** CPU cycles to pack one node value into an input vector. */
    static constexpr long cpuCyclesPerPack = 4;
    /** Byte-packed observation/action elements per 64-bit word. */
    static constexpr long ioElementsPerWord = 8;
    /** Array mapping efficiency of the packed-vertex schedule. */
    static constexpr double packEfficiency = 0.85;

  private:
    SocParams soc_;
};

} // namespace genesys::hw

#endif // GENESYS_HW_ADAM_HH
