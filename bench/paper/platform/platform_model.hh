/**
 * @file
 * Analytical models of the baseline platforms in Table III: desktop
 * (6th-gen i7, GTX 1080) and embedded (Jetson TX2: Cortex-A57,
 * Tegra GPU) CPUs and GPUs running the NEAT workloads with the
 * paper's parallelization strategies (serial, PLP multithreading,
 * GPU bulk-synchronous with/without PLP batching).
 *
 * The paper measured real hardware; we model it (see README,
 * "Modelled, not measured"). Each model is driven by the *actual*
 * per-generation workload profile of our NEAT runs (op counts, steps,
 * MACs, matrix shapes) combined with per-platform cost constants
 * (documented in platform_model.cc and calibrated to land the paper's
 * published ratios: GPU_a ~70% / GPU_b ~20% memcpy share, GeneSys 100x
 * inference speedup and 4-5 orders evolution energy advantage).
 */

#ifndef GENESYS_PLATFORM_PLATFORM_MODEL_HH
#define GENESYS_PLATFORM_PLATFORM_MODEL_HH

#include <string>
#include <vector>

namespace genesys::platform
{

/** Table III rows. */
enum class PlatformId
{
    CPU_a, ///< i7, serial inference, serial evolution
    CPU_b, ///< i7, PLP (4-thread) inference, serial evolution
    GPU_a, ///< GTX 1080, BSP inference, PLP evolution
    GPU_b, ///< GTX 1080, BSP+PLP inference, PLP evolution
    CPU_c, ///< Cortex-A57, serial/serial
    CPU_d, ///< Cortex-A57, PLP inference
    GPU_c, ///< Tegra, BSP inference
    GPU_d, ///< Tegra, BSP+PLP inference
};

/** All Table III baseline platforms, in paper order. */
const std::vector<PlatformId> &allPlatforms();

std::string platformName(PlatformId id);
std::string platformDevice(PlatformId id);
std::string platformInferenceStrategy(PlatformId id);
std::string platformEvolutionStrategy(PlatformId id);

/**
 * Per-generation workload profile, extracted from a real NEAT run
 * (core/experiment.hh builds these).
 */
struct WorkloadProfile
{
    std::string envName;
    int population = 150;

    /** Crossover + mutation gene-ops per generation. */
    long evolutionOps = 0;
    /** Environment steps (== forward passes) per generation, summed
     *  over the population's episodes. */
    long inferenceSteps = 0;
    /**
     * Lockstep (BSP) step count for batched GPU execution: the
     * longest episode in the generation. Batched kernels run the
     * whole population for this many steps, wasting slots on genomes
     * whose episodes already ended. 0 = derive from inferenceSteps.
     */
    long batchedSteps = 0;
    /** Useful MACs per forward pass, averaged per genome. */
    double macsPerStep = 0.0;
    /** Packed (compacted) matrix cells per genome (GPU_a storage). */
    long compactCellsPerGenome = 0;
    /** Padded sparse-tensor cells per genome (GPU_b storage):
     *  (nodes + inputs)^2 adjacency form. */
    long sparseCellsPerGenome = 0;
    /** Genes in the whole generation (GeneSys storage, 8 B each). */
    long totalGenes = 0;
    /** Observation / action vector sizes in bytes. */
    long obsBytes = 0;
    long actBytes = 0;
};

/** Inference-phase time breakdown (Fig 10(a,b)). */
struct TimeBreakdown
{
    double memcpyHtoDSeconds = 0.0;
    double memcpyDtoHSeconds = 0.0;
    double kernelSeconds = 0.0;

    double
    totalSeconds() const
    {
        return memcpyHtoDSeconds + memcpyDtoHSeconds + kernelSeconds;
    }

    double
    transferFraction() const
    {
        const double t = totalSeconds();
        return t > 0.0
                   ? (memcpyHtoDSeconds + memcpyDtoHSeconds) / t
                   : 0.0;
    }
};

/** The analytical baseline-platform model. */
class PlatformModel
{
  public:
    explicit PlatformModel(PlatformId id) : id_(id) {}

    /** Evolution (reproduction) runtime per generation, seconds. */
    double evolutionSeconds(const WorkloadProfile &w) const;
    /** Evolution energy per generation, joules. */
    double evolutionEnergyJ(const WorkloadProfile &w) const;

    /** Inference runtime per generation, seconds. */
    double inferenceSeconds(const WorkloadProfile &w) const;
    /** Inference energy per generation, joules. */
    double inferenceEnergyJ(const WorkloadProfile &w) const;

    /** GPU-only: memcpy vs kernel split (Fig 10(a,b)). */
    TimeBreakdown inferenceBreakdown(const WorkloadProfile &w) const;

    /**
     * On-device working-set footprint in bytes (Fig 10(d)):
     * GPU_a keeps one genome's compact matrices at a time; GPU_b
     * keeps the whole population's padded sparse tensors.
     */
    long footprintBytes(const WorkloadProfile &w) const;

    /** Average active power, watts. */
    double activePowerW() const;

  private:
    PlatformId id_;
};

} // namespace genesys::platform

#endif // GENESYS_PLATFORM_PLATFORM_MODEL_HH
