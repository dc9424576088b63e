/**
 * @file
 * Domain example: continuous learning on a 128-byte RAM game — the
 * workload class that stresses gene-level parallelism (hundreds of
 * thousands of gene-ops per generation). Shows the evolved policy's
 * score trajectory and the hardware-side per-generation cost from
 * the SoC model.
 *
 * Build & run:  ./build/examples/atari_ram [variant 0-3] [generations]
 */

#include <cstdlib>
#include <iostream>

#include "common/table.hh"
#include "core/genesys.hh"
#include "env/atari_ram.hh"
#include "nn/compiled_plan.hh"

using namespace genesys;

int
main(int argc, char **argv)
{
    const int variant_idx =
        argc > 1 ? std::atoi(argv[1]) : 0;
    const int generations = argc > 2 ? std::atoi(argv[2]) : 10;
    const auto variant = static_cast<env::AtariVariant>(
        std::clamp(variant_idx, 0, 3));

    core::SystemConfig cfg;
    cfg.envName = env::atariVariantName(variant);
    cfg.maxGenerations = generations;
    cfg.seed = 1;

    std::cout << "Evolving " << cfg.envName << " (128-byte RAM in, "
              << env::AtariRam(variant).actionSpace().n
              << " buttons out)\n\n";
    core::System sys(cfg);
    sys.run();

    Table t("generation log (algorithm + hardware)");
    t.setHeader({"gen", "best fit", "genes", "gene-ops", "EvE cycles",
                 "EvE uJ", "ADAM cycles", "ADAM uJ", "DRAM KB"});
    for (const auto &r : sys.reports()) {
        t.addRow({Table::integer(r.algo.generation),
                  Table::num(r.algo.bestFitness, 3),
                  Table::integer(r.algo.totalGenes),
                  Table::integer(r.algo.evolutionOps),
                  Table::integer(r.hw.eve.cycles),
                  Table::num(r.hw.evolutionEnergyJ * 1e6, 2),
                  Table::integer(r.hw.adam.cycles),
                  Table::num(r.hw.inferenceEnergyJ * 1e6, 2),
                  Table::num(r.hw.eve.dramBytes / 1024.0, 0)});
    }
    t.print(std::cout);

    // Replay the champion, compiled as the run evaluated it, and print
    // its score trace.
    const auto &best = sys.population().bestGenome();
    const auto plan = nn::CompiledPlan::compileFor(best, sys.neatConfig(),
                                                   sys.numericsTier());
    nn::PlanScratch scratch;
    plan.reset(scratch);
    env::AtariRam env(variant);
    auto obs = env.reset(99);
    bool done = false;
    long last_score = 0;
    std::cout << "\nchampion replay:\n";
    while (!done) {
        plan.activate(obs, scratch);
        const auto action =
            env::decodeAction(env.actionSpace(), scratch.outputs);
        const auto r = env.step(action);
        obs = r.observation;
        done = r.done;
        if (env.score() != last_score) {
            std::cout << "  step " << env.stepsTaken() << ": score "
                      << env.score() << "\n";
            last_score = env.score();
        }
    }
    std::cout << "final score " << env.score() << " in "
              << env.stepsTaken() << " steps ("
              << (env.dead() ? "died" : "survived") << "); fitness "
              << Table::num(env.episodeFitness(), 3) << "\n";
    std::cout << "champion: " << best.numNodeGenes() << " nodes, "
              << best.numConnectionGenes() << " connections, "
              << best.memoryBytes() << " B in the Genome Buffer\n";
    return 0;
}
