/**
 * @file
 * Domain example: evolve a LunarLander controller, then replay the
 * best genome with an ASCII visualization of the landing trajectory.
 *
 * Demonstrates: workload presets, per-generation reports, genome
 * introspection, and manual episode stepping against the raw
 * Environment API.
 *
 * Build & run:  ./build/examples/lunar_lander [seed]
 */

#include <cstdlib>
#include <iostream>

#include "common/table.hh"
#include "core/genesys.hh"
#include "env/lunar_lander.hh"
#include "nn/compiled_plan.hh"

using namespace genesys;

namespace
{

void
drawFrame(double x, double y, bool thrust)
{
    // World x in [-1.5, 1.5], y in [0, 1.5]; pad at |x| <= 0.25.
    constexpr int w = 61, h = 12;
    const int col = static_cast<int>((x + 1.5) / 3.0 * (w - 1));
    const int row =
        h - 1 - static_cast<int>(std::min(y, 1.49) / 1.5 * (h - 1));
    for (int r = 0; r < h; ++r) {
        std::string line(w, ' ');
        if (r == row && col >= 0 && col < w)
            line[static_cast<size_t>(col)] = thrust ? 'A' : 'V';
        std::cout << "|" << line << "|\n";
    }
    std::string ground(w, '-');
    const int pad_lo = static_cast<int>((1.5 - 0.25) / 3.0 * (w - 1));
    const int pad_hi = static_cast<int>((1.5 + 0.25) / 3.0 * (w - 1));
    for (int c = pad_lo; c <= pad_hi && c < static_cast<int>(w); ++c)
        ground[static_cast<size_t>(c)] = '=';
    std::cout << "+" << ground << "+\n";
}

} // namespace

int
main(int argc, char **argv)
{
    core::SystemConfig cfg;
    cfg.envName = "LunarLander_v2";
    cfg.maxGenerations = 40;
    // Average fitness over two episodes so champions generalize
    // beyond a single initial condition.
    cfg.episodesPerEval = 2;
    cfg.seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3;

    std::cout << "Evolving a LunarLander-v2 controller (population 150, "
                 "target fitness 1.0 = gym's +200)...\n\n";
    core::System sys(cfg);
    const auto summary = sys.run();

    Table t("evolution progress");
    t.setHeader({"gen", "best", "mean", "species", "genes",
                 "max parent reuse"});
    for (const auto &r : sys.reports()) {
        if (r.algo.generation % 2 == 0 ||
            static_cast<size_t>(r.algo.generation) + 1 ==
                sys.reports().size()) {
            t.addRow({Table::integer(r.algo.generation),
                      Table::num(r.algo.bestFitness, 3),
                      Table::num(r.algo.meanFitness, 3),
                      Table::integer(r.algo.numSpecies),
                      Table::integer(r.algo.totalGenes),
                      Table::integer(r.algo.maxParentReuse)});
        }
    }
    t.print(std::cout);
    std::cout << "\nsolved: " << (summary.solved ? "yes" : "no")
              << ", best fitness " << summary.bestFitness << " after "
              << summary.generations << " generations\n\n";

    // Replay the champion on fresh initial conditions; visualize the
    // first successful descent (policies are stochastic-environment
    // specialists, so also report the success rate).
    const auto &best = sys.population().bestGenome();
    const auto plan = nn::CompiledPlan::compileFor(best, sys.neatConfig(),
                                                   sys.numericsTier());
    nn::PlanScratch scratch;
    int landings = 0;
    uint64_t shown_seed = 0;
    for (uint64_t seed = 100; seed < 110; ++seed) {
        env::LunarLander probe;
        plan.reset(scratch);
        auto obs = probe.reset(seed);
        bool done = false;
        while (!done) {
            plan.activate(obs, scratch);
            const auto a =
                env::decodeAction(probe.actionSpace(), scratch.outputs);
            const auto r = probe.step(a);
            obs = r.observation;
            done = r.done;
        }
        if (probe.landed()) {
            ++landings;
            if (!shown_seed)
                shown_seed = seed;
        }
    }
    std::cout << "replay: " << landings
              << "/10 fresh episodes landed\n\n";

    env::LunarLander env;
    plan.reset(scratch);
    auto obs = env.reset(shown_seed ? shown_seed : 100);
    bool done = false;
    int frame = 0;
    while (!done) {
        plan.activate(obs, scratch);
        const auto action =
            env::decodeAction(env.actionSpace(), scratch.outputs);
        const auto r = env.step(action);
        if (frame % 30 == 0) {
            std::cout << "t=" << frame << "  x=" << Table::num(obs[0], 2)
                      << " y=" << Table::num(obs[1], 2)
                      << " action=" << action.discrete << "\n";
            drawFrame(obs[0], obs[1], action.discrete == 2);
        }
        obs = r.observation;
        done = r.done;
        ++frame;
    }
    std::cout << "\nfinal: " << (env.landed() ? "LANDED" : "crashed")
              << " at x=" << Table::num(obs[0], 2) << " after " << frame
              << " steps; episode fitness "
              << Table::num(env.episodeFitness(), 3) << "\n";
    std::cout << "champion genome: " << best.numNodeGenes()
              << " node genes, " << best.numConnectionGenes()
              << " connection genes\n";
    return 0;
}
