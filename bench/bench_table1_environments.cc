/**
 * @file
 * Table I: the OpenAI-gym environment suite — goal, observation and
 * action spaces — as implemented by this reproduction.
 */

#include <iostream>

#include "common/table.hh"
#include "env/runner.hh"

using namespace genesys;

int
main()
{
    Table t("Table I: OpenAI Gym environments for our experiments");
    t.setHeader({"Environment", "Observation", "Action space",
                 "Net outputs", "Max steps", "Target fitness"});

    for (const auto &name : env::environmentNames()) {
        auto e = env::makeEnvironment(name);
        const auto space = e->actionSpace();
        std::string action;
        if (space.kind == env::ActionSpace::Kind::Discrete) {
            action = "discrete(" + std::to_string(space.n) + ")";
        } else {
            action = "continuous(" + std::to_string(space.n) + ") [" +
                     Table::num(space.low, 1) + "," +
                     Table::num(space.high, 1) + "]";
        }
        t.addRow({name,
                  std::to_string(e->observationSize()) + " floats",
                  action, Table::integer(e->recommendedOutputs()),
                  Table::integer(e->maxSteps()),
                  Table::num(e->targetFitness(), 2)});
    }
    t.print(std::cout);

    std::cout << "\nNote: Atari-RAM rows are deterministic synthetic "
                 "surrogates over a 128-byte\nmachine state (see README, "
                 "\"Modelled, not measured\"); classic-control rows use "
                 "gym-identical dynamics.\n";
    return 0;
}
