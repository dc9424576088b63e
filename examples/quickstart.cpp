/**
 * @file
 * Quickstart: evolve a CartPole controller with the GeneSys closed
 * loop — NEAT population, environment instances, and the SoC
 * hardware model — in ~20 lines of user code.
 *
 * Build & run:  ./build/examples/quickstart [--checkpoint-dir DIR]
 *                   [--telemetry-dir DIR] [seed] [maxGenerations]
 *                   [resumeSnapshot]
 *
 * The flags map onto core::SystemConfig. --checkpoint-dir writes a
 * persist:: snapshot into DIR at every generation barrier; pass a
 * snapshot path as the third positional argument to resume it in a
 * fresh process. A resumed run is bit-identical to the uninterrupted
 * one — the per-generation "digest gen" lines printed below let CI
 * diff the two. --telemetry-dir turns on span tracing and metrics and
 * writes their artifacts into DIR.
 */

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.hh"
#include "common/table.hh"
#include "core/genesys.hh"

int
main(int argc, char **argv)
{
    using namespace genesys;

    core::SystemConfig cfg;
    cfg.envName = "CartPole_v0";
    std::vector<std::string> args; // positional
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            args.push_back(arg);
            continue;
        }
        if (i + 1 == argc ||
            (arg != "--checkpoint-dir" && arg != "--telemetry-dir")) {
            std::cerr << "usage: quickstart [--checkpoint-dir DIR] "
                         "[--telemetry-dir DIR] [seed] "
                         "[maxGenerations] [resumeSnapshot]\n";
            return 2;
        }
        const std::string dir = argv[++i];
        if (arg == "--checkpoint-dir") {
            cfg.checkpointDir = dir;
        } else {
            cfg.telemetry.trace = true;
            cfg.telemetry.metrics = true;
            cfg.telemetry.dir = dir;
        }
    }
    cfg.seed =
        !args.empty() ? std::strtoull(args[0].c_str(), nullptr, 10) : 7;
    cfg.maxGenerations = args.size() > 1 ? std::atoi(args[1].c_str()) : 40;
    // Evaluate each generation on all hardware threads; fitness is
    // bit-identical to a serial (numThreads = 1) run.
    cfg.numThreads = 0;

    core::System sys(cfg);

    // Self-identifying log header: which correctness tooling this
    // binary carries (GENESYS_CHECKED build flag, the sanitizer it
    // was compiled under, if any) and the run's numerics tier.
    std::cout << "build: checked=" << (checkedBuild() ? "on" : "off")
              << " sanitizer=" << sanitizerName()
              << " numerics=" << nn::numericsTierName(sys.numericsTier())
              << "\n";
    if (args.size() > 2)
        sys.resumeFrom(args[2]);
    core::RunSummary summary = sys.run();

    Table t("CartPole_v0 evolution (population 150)");
    t.setHeader({"gen", "best fitness", "mean fitness", "species",
                 "genes", "evo ops", "EvE us", "EvE uJ", "ADAM uJ"});
    for (const auto &r : sys.reports()) {
        t.addRow({Table::integer(r.algo.generation),
                  Table::num(r.algo.bestFitness, 1),
                  Table::num(r.algo.meanFitness, 2),
                  Table::integer(r.algo.numSpecies),
                  Table::integer(r.algo.totalGenes),
                  Table::integer(r.algo.evolutionOps),
                  Table::num(r.hw.evolutionSeconds * 1e6, 2),
                  Table::num(r.hw.evolutionEnergyJ * 1e6, 3),
                  Table::num(r.hw.inferenceEnergyJ * 1e6, 3)});
    }
    t.print(std::cout);

    std::cout << "\nsolved: " << (summary.solved ? "yes" : "no")
              << "  generations: " << summary.generations
              << "  best fitness: " << summary.bestFitness << "\n";

    // One deterministic digest line per generation (absolute
    // generation numbers, FNV-1a over the report's algorithm and
    // hardware fields). The CI kill/resume smoke concatenates these
    // from an interrupted + resumed pair of processes and diffs them
    // against one uninterrupted run.
    for (const auto &r : sys.reports()) {
        uint64_t h = 0xcbf29ce484222325ull;
        const auto fold = [&h](uint64_t v) {
            for (int b = 0; b < 8; ++b) {
                h ^= (v >> (8 * b)) & 0xffu;
                h *= 0x100000001b3ull;
            }
        };
        fold(static_cast<uint64_t>(r.algo.generation));
        fold(std::bit_cast<uint64_t>(r.algo.bestFitness));
        fold(std::bit_cast<uint64_t>(r.algo.meanFitness));
        fold(static_cast<uint64_t>(r.algo.totalGenes));
        fold(static_cast<uint64_t>(r.algo.evolutionOps));
        fold(static_cast<uint64_t>(r.inferenceSteps));
        fold(static_cast<uint64_t>(r.hw.eve.cycles));
        fold(static_cast<uint64_t>(r.hw.adam.cycles));
        fold(std::bit_cast<uint64_t>(r.hw.evolutionEnergyJ));
        std::printf("digest gen %03d 0x%016llx\n", r.algo.generation,
                    static_cast<unsigned long long>(h));
    }

    // Phase breakdown: mean wall-clock per generation, plus the
    // measured generation-barrier idle fraction (worker-seconds the
    // evaluation lanes spent outside evaluation bodies).
    if (!sys.reports().empty()) {
        core::PhaseBreakdown mean;
        double occupancy = 0.0;
        for (const auto &r : sys.reports()) {
            mean.evaluateSeconds += r.phases.evaluateSeconds;
            mean.reproduceSeconds += r.phases.reproduceSeconds;
            mean.breedSeconds += r.phases.breedSeconds;
            mean.speciateSeconds += r.phases.speciateSeconds;
            mean.reportSeconds += r.phases.reportSeconds;
            mean.wallSeconds += r.phases.wallSeconds;
            mean.planCompileCpuSeconds +=
                r.phases.planCompileCpuSeconds;
            mean.barrierIdleFraction += r.phases.barrierIdleFraction;
            occupancy += r.batches.laneOccupancy();
        }
        const double n = static_cast<double>(sys.reports().size());
        std::cout << "phase breakdown (mean ms/gen): evaluate "
                  << mean.evaluateSeconds * 1e3 / n << "  reproduce "
                  << mean.reproduceSeconds * 1e3 / n << " (breed "
                  << mean.breedSeconds * 1e3 / n << ")  speciate "
                  << mean.speciateSeconds * 1e3 / n << "  report "
                  << mean.reportSeconds * 1e3 / n << "  wall "
                  << mean.wallSeconds * 1e3 / n
                  << "  plan-compile (cpu) "
                  << mean.planCompileCpuSeconds * 1e3 / n << "\n";
        std::cout << "barrier idle fraction (mean over "
                  << sys.evalEngine().numThreads()
                  << " workers): " << mean.barrierIdleFraction / n
                  << "\n";
        std::cout << "wave lane occupancy (mean): " << occupancy / n
                  << "\n";
    }
    if (sys.telemetry().installed())
        std::cout << "telemetry written to "
                  << sys.telemetry().config().dir << "/\n";

    const auto replay = sys.replayBest(1234);
    std::cout << "replay of best genome: " << replay.steps
              << " balanced steps (fitness " << replay.fitness << ")\n";
    std::cout << "best genome: "
              << sys.population().bestGenome().numNodeGenes()
              << " node genes, "
              << sys.population().bestGenome().numConnectionGenes()
              << " connection genes\n";
    return summary.solved ? 0 : 1;
}
