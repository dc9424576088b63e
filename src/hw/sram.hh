/**
 * @file
 * Genome Buffer model: the shared multi-banked SRAM holding all
 * genomes of a generation (Section IV-A), backed by DRAM for
 * populations that do not fit on chip. Bank count limits the read
 * bandwidth available to EvE/ADAM per cycle.
 */

#ifndef GENESYS_HW_SRAM_HH
#define GENESYS_HW_SRAM_HH

#include "hw/energy_model.hh"

namespace genesys::hw
{

/** The multi-banked Genome Buffer. */
class GenomeBuffer
{
  public:
    GenomeBuffer(int kib, int banks) : kib_(kib), banks_(banks) {}

    long capacityBytes() const { return static_cast<long>(kib_) * 1024; }

    /** Does a generation of `bytes` fit on chip? */
    bool fits(long bytes) const { return bytes <= capacityBytes(); }

    /** Bytes spilled to DRAM for a generation of `bytes`. */
    long
    dramSpillBytes(long bytes) const
    {
        return bytes > capacityBytes() ? bytes - capacityBytes() : 0;
    }

    /**
     * Maximum 64-bit reads the banks can serve per cycle (one access
     * per bank per cycle).
     */
    long readsPerCycleLimit() const { return banks_; }

    /**
     * Cycles needed to serve `reads` given the bank bandwidth and a
     * lower bound of `min_cycles` from the compute pipeline. Models
     * the bandwidth wall a point-to-point NoC hits at high PE counts.
     */
    long
    serveCycles(long reads, long min_cycles) const
    {
        const long bw_cycles =
            (reads + readsPerCycleLimit() - 1) / readsPerCycleLimit();
        return bw_cycles > min_cycles ? bw_cycles : min_cycles;
    }

  private:
    int kib_;
    int banks_;
};

} // namespace genesys::hw

#endif // GENESYS_HW_SRAM_HH
