#include "nn/levelize.hh"

namespace genesys::nn
{

long
InferenceSchedule::totalMacs() const
{
    long macs = 0;
    for (const auto &l : layers)
        macs += l.weights;
    return macs;
}

long
InferenceSchedule::totalNodes() const
{
    long nodes = 0;
    for (const auto &l : layers)
        nodes += l.numNodes;
    return nodes;
}

long
InferenceSchedule::denseCells() const
{
    long cells = 0;
    for (const auto &l : layers)
        cells += static_cast<long>(l.numNodes) * l.vectorLen;
    return cells;
}

double
InferenceSchedule::meanDensity() const
{
    const long cells = denseCells();
    if (cells == 0)
        return 0.0;
    return static_cast<double>(totalMacs()) / static_cast<double>(cells);
}

} // namespace genesys::nn
