#include "neat/config.hh"

#include "common/logging.hh"

namespace genesys::neat
{

void
NeatConfig::validate() const
{
    if (populationSize < 2)
        fatal("populationSize must be >= 2");
    if (numInputs < 1)
        fatal("numInputs must be >= 1");
    if (numOutputs < 1)
        fatal("numOutputs must be >= 1");
    if (numHidden < 0)
        fatal("numHidden must be >= 0");
    for (double p : {connAddProb, connDeleteProb, nodeAddProb,
                     nodeDeleteProb}) {
        if (p < 0.0 || p > 1.0)
            fatal("structural mutation probabilities must be in [0,1]");
    }
    if (survivalThreshold <= 0.0 || survivalThreshold > 1.0)
        fatal("survivalThreshold must be in (0,1]");
    if (elitism < 0)
        fatal("elitism must be >= 0");
    if (elitism >= populationSize)
        fatal("elitism must be smaller than populationSize");
    if (compatibilityThreshold <= 0.0)
        fatal("compatibilityThreshold must be positive");
    if (maxStagnation < 1)
        fatal("maxStagnation must be >= 1");
    if (activation.options.empty())
        fatal("at least one activation option is required");
    if (aggregation.options.empty())
        fatal("at least one aggregation option is required");
}

} // namespace genesys::neat
