/**
 * @file
 * The packed inference schedule ADAM executes ("vectorize", Section
 * IV-D): the System CPU packs the ready vertices of the irregular
 * NEAT graph into well formed vectors so ADAM can evaluate them as
 * dense matrix-vector products on its systolic array.
 * CompiledPlan::compile builds this schedule from the same layers it
 * lowers for execution (CompiledPlan::schedule()), so the software
 * plan and the ADAM cost model agree by construction.
 */

#ifndef GENESYS_NN_LEVELIZE_HH
#define GENESYS_NN_LEVELIZE_HH

#include <vector>


namespace genesys::nn
{

/**
 * One packed matrix-vector step: all vertices of a topological layer
 * evaluated together. The weight matrix is M x K where M is the
 * number of ready nodes and K the packed input vector length (unique
 * sources feeding the layer).
 */
struct PackedLayer
{
    int numNodes = 0;   ///< M: rows of the packed weight matrix
    int vectorLen = 0;  ///< K: packed input vector length
    long weights = 0;   ///< non-zero entries (enabled in-edges)

    /** Fraction of the M x K matrix that is non-zero. */
    double
    density() const
    {
        const long cells = static_cast<long>(numNodes) * vectorLen;
        return cells ? static_cast<double>(weights) /
                           static_cast<double>(cells)
                     : 0.0;
    }
};

/** Complete inference schedule for one genome. */
struct InferenceSchedule
{
    std::vector<PackedLayer> layers;

    /** Total useful multiply-accumulates. */
    long totalMacs() const;
    /** Total nodes evaluated (vertex updates). */
    long totalNodes() const;
    /** Dense cells the packed matrices occupy (GPU_b-style storage). */
    long denseCells() const;
    /** Mean density across layers, weighted by matrix size. */
    double meanDensity() const;
};

} // namespace genesys::nn

#endif // GENESYS_NN_LEVELIZE_HH
