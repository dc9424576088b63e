#include "platform/platform_model.hh"

#include <array>
#include <cmath>

#include "common/logging.hh"

namespace genesys::platform
{

namespace
{

/**
 * Per-platform cost constants.
 *
 * These are modelled, not measured (see README, "Modelled, not
 * measured"): the paper used real i7 / GTX 1080 / Jetson TX2
 * hardware. Constants are chosen from public characteristics of those
 * parts (kernel-launch and cudaMemcpy latencies, PCIe effective
 * bandwidth, interpreter-level per-op cost of the neat-python codebase
 * the paper ran, TDPs) and calibrated so the published *relative*
 * results hold: parallel CPU inference ~3.5x serial, GPU_a ~70% /
 * GPU_b ~20% time in memcpy, GeneSys orders-of-magnitude ahead
 * (Figs 9-10).
 */
struct Costs
{
    const char *name;
    const char *device;
    const char *inferenceStrategy;
    const char *evolutionStrategy;
    bool gpu;

    double evoOpS;        ///< seconds per crossover/mutation gene-op
    double evoOverheadS;  ///< fixed per-generation reproduction cost
    double macS;          ///< seconds per useful MAC (CPU inference)
    double stepOverheadS; ///< per-forward-pass dispatch overhead (CPU)
    double plpSpeedup;    ///< multithreaded inference speedup

    double kernelLaunchS; ///< GPU kernel launch latency
    double memLatencyS;   ///< per-cudaMemcpy fixed latency
    double memBwBps;      ///< host<->device effective bandwidth
    double cellS;         ///< seconds per matrix cell streamed on GPU

    double powerW;        ///< average active power
};

// Indexed by PlatformId order.
constexpr std::array<Costs, 8> costs = {{
    // CPU_a: i7, serial / serial
    {"CPU_a", "6th gen i7", "Serial", "Serial", false,
     2.0e-6, 2.0e-3, 5.0e-9, 4.0e-5, 1.0,
     0.0, 0.0, 1.0, 0.0, 45.0},
    // CPU_b: i7, PLP inference / serial evolution
    {"CPU_b", "6th gen i7", "PLP", "Serial", false,
     2.0e-6, 2.0e-3, 5.0e-9, 4.0e-5, 3.5,
     0.0, 0.0, 1.0, 0.0, 52.0},
    // GPU_a: GTX 1080, BSP inference / PLP evolution
    {"GPU_a", "Nvidia GTX 1080", "BSP", "PLP", true,
     2.5e-9, 3.0e-4, 0.0, 0.0, 1.0,
     8.0e-6, 1.5e-5, 6.0e9, 1.25e-11, 150.0},
    // GPU_b: GTX 1080, BSP+PLP inference / PLP evolution
    {"GPU_b", "Nvidia GTX 1080", "BSP + PLP", "PLP", true,
     2.5e-9, 3.0e-4, 0.0, 0.0, 1.0,
     8.0e-6, 1.5e-5, 6.0e9, 1.25e-11, 160.0},
    // CPU_c: Cortex-A57, serial / serial
    {"CPU_c", "ARM Cortex A57", "Serial", "Serial", false,
     1.0e-5, 8.0e-3, 2.5e-8, 1.5e-4, 1.0,
     0.0, 0.0, 1.0, 0.0, 4.0},
    // CPU_d: Cortex-A57, PLP inference
    {"CPU_d", "ARM Cortex A57", "PLP", "Serial", false,
     1.0e-5, 8.0e-3, 2.5e-8, 1.5e-4, 3.5,
     0.0, 0.0, 1.0, 0.0, 5.0},
    // GPU_c: Tegra, BSP inference / PLP evolution
    {"GPU_c", "Nvidia Tegra", "BSP", "PLP", true,
     1.2e-8, 1.2e-3, 0.0, 0.0, 1.0,
     3.0e-5, 4.0e-5, 4.0e9, 1.0e-10, 10.0},
    // GPU_d: Tegra, BSP+PLP inference
    {"GPU_d", "Nvidia Tegra", "BSP + PLP", "PLP", true,
     1.2e-8, 1.2e-3, 0.0, 0.0, 1.0,
     3.0e-5, 4.0e-5, 4.0e9, 1.0e-10, 11.0},
}};

const Costs &
cost(PlatformId id)
{
    return costs[static_cast<size_t>(id)];
}

} // namespace

const std::vector<PlatformId> &
allPlatforms()
{
    static const std::vector<PlatformId> all = {
        PlatformId::CPU_a, PlatformId::CPU_b, PlatformId::GPU_a,
        PlatformId::GPU_b, PlatformId::CPU_c, PlatformId::CPU_d,
        PlatformId::GPU_c, PlatformId::GPU_d,
    };
    return all;
}

std::string
platformName(PlatformId id)
{
    return cost(id).name;
}

std::string
platformDevice(PlatformId id)
{
    return cost(id).device;
}

std::string
platformInferenceStrategy(PlatformId id)
{
    return cost(id).inferenceStrategy;
}

std::string
platformEvolutionStrategy(PlatformId id)
{
    return cost(id).evolutionStrategy;
}

double
PlatformModel::activePowerW() const
{
    return cost(id_).powerW;
}

double
PlatformModel::evolutionSeconds(const WorkloadProfile &w) const
{
    const Costs &c = cost(id_);
    if (!c.gpu) {
        // Serial reproduction in the host language.
        return w.evolutionOps * c.evoOpS + c.evoOverheadS;
    }
    // GPU evolution exploits PLP: children bred in parallel, but the
    // parent genomes must cross PCIe both ways and kernels launched
    // per mutation class.
    const double genome_bytes = static_cast<double>(w.totalGenes) * 8.0;
    const double xfer =
        2.0 * (c.memLatencyS + genome_bytes / c.memBwBps);
    const double compute =
        w.evolutionOps * c.evoOpS / std::max(1, w.population);
    return c.evoOverheadS + xfer + compute;
}

double
PlatformModel::evolutionEnergyJ(const WorkloadProfile &w) const
{
    return evolutionSeconds(w) * activePowerW();
}

TimeBreakdown
PlatformModel::inferenceBreakdown(const WorkloadProfile &w) const
{
    const Costs &c = cost(id_);
    TimeBreakdown b;
    GENESYS_ASSERT(c.gpu, "breakdown only defined for GPU platforms");

    const bool batched = id_ == PlatformId::GPU_b ||
                         id_ == PlatformId::GPU_d;
    if (!batched) {
        // GPU_a/c: one kernel per genome per environment step; the
        // genome's compacted matrices go over PCIe once per
        // generation, observations/actions every step.
        const double compact_bytes =
            static_cast<double>(w.compactCellsPerGenome) * 4.0;
        b.memcpyHtoDSeconds =
            w.population * (c.memLatencyS + compact_bytes / c.memBwBps) +
            w.inferenceSteps *
                (c.memLatencyS +
                 static_cast<double>(w.obsBytes) / c.memBwBps);
        b.memcpyDtoHSeconds =
            w.inferenceSteps *
            (c.memLatencyS + static_cast<double>(w.actBytes) / c.memBwBps);
        b.kernelSeconds =
            w.inferenceSteps *
            (c.kernelLaunchS + w.compactCellsPerGenome * c.cellS);
        return b;
    }

    // GPU_b/d: all genomes batched per environment step (PLP mapped
    // onto BSP). Inputs/weights can no longer be compacted: the
    // whole population's padded sparse tensors live on the device
    // and each batched kernel streams them — in lockstep until the
    // longest episode finishes, and with scattered (sparse) access
    // patterns that stream far slower than compact matrices.
    const long batched_steps =
        w.batchedSteps > 0
            ? w.batchedSteps
            : (w.inferenceSteps + w.population - 1) / w.population;
    const double sparse_cell_s = 4.0 * c.cellS; // scattered access
    const double sparse_bytes = static_cast<double>(w.population) *
                                w.sparseCellsPerGenome * 4.0;
    b.memcpyHtoDSeconds =
        (c.memLatencyS + sparse_bytes / c.memBwBps) + // weights, once
        batched_steps *
            (c.memLatencyS +
             static_cast<double>(w.population) * w.obsBytes / c.memBwBps);
    b.memcpyDtoHSeconds =
        batched_steps *
        (c.memLatencyS +
         static_cast<double>(w.population) * w.actBytes / c.memBwBps);
    b.kernelSeconds =
        batched_steps *
        (c.kernelLaunchS + static_cast<double>(w.population) *
                               w.sparseCellsPerGenome * sparse_cell_s);
    return b;
}

double
PlatformModel::inferenceSeconds(const WorkloadProfile &w) const
{
    const Costs &c = cost(id_);
    if (c.gpu)
        return inferenceBreakdown(w).totalSeconds();
    // CPU: per-step dispatch overhead + MAC work, optionally
    // multithreaded across genomes (PLP).
    const double serial =
        w.inferenceSteps * (c.stepOverheadS + w.macsPerStep * c.macS);
    return serial / c.plpSpeedup;
}

double
PlatformModel::inferenceEnergyJ(const WorkloadProfile &w) const
{
    return inferenceSeconds(w) * activePowerW();
}

long
PlatformModel::footprintBytes(const WorkloadProfile &w) const
{
    const bool batched = id_ == PlatformId::GPU_b ||
                         id_ == PlatformId::GPU_d;
    if (cost(id_).gpu && !batched) {
        // One genome's compact matrices + io vectors at a time.
        return w.compactCellsPerGenome * 4 + w.obsBytes + w.actBytes;
    }
    if (batched) {
        // Whole population's padded sparse tensors.
        return static_cast<long>(w.population) * w.sparseCellsPerGenome *
               4;
    }
    // CPU reference: the genomes themselves (python object overhead
    // ignored).
    return w.totalGenes * 8;
}

} // namespace genesys::platform
