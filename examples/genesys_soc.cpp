/**
 * @file
 * Hardware-centric example: drive the GeneSys SoC model directly.
 *
 *  1. Print the design point (area/power) for a configurable PE count.
 *  2. Push two real parent genomes through the *functional* EvE PE
 *     pipeline (Fig 7) — encode to the 64-bit gene format, align
 *     streams in the Gene Split unit, run the 4-stage pipeline, merge
 *     and decode the child — and show what each engine did.
 *  3. Compare the same generation under a point-to-point NoC vs the
 *     multicast tree.
 *
 * Build & run:  ./build/examples/genesys_soc [numEvePe]
 */

#include <cstdlib>
#include <iostream>

#include "common/table.hh"
#include "core/genesys.hh"
#include "hw/eve_pe.hh"
#include "hw/gene_merge.hh"

using namespace genesys;
using namespace genesys::hw;

int
main(int argc, char **argv)
{
    SocParams soc;
    if (argc > 1)
        soc.numEvePe = std::atoi(argv[1]);
    EnergyModel energy;

    // --- 1: design point -------------------------------------------------
    {
        const auto p = energy.rooflinePower(soc);
        const auto a = energy.area(soc);
        std::cout << "GeneSys SoC @ " << soc.numEvePe << " EvE PEs, "
                  << soc.adamMacs() << " ADAM MACs, "
                  << soc.sramKiB / 1024.0 << " MB / " << soc.sramBanks
                  << "-bank Genome Buffer, "
                  << soc.frequencyHz / 1e6 << " MHz\n";
        std::cout << "  area  : " << Table::num(a.totalMm2(), 2)
                  << " mm2 (EvE " << Table::num(a.eveMm2, 2)
                  << ", ADAM " << Table::num(a.adamMm2, 2) << ", SRAM "
                  << Table::num(a.sramMm2, 2) << ")\n";
        std::cout << "  power : " << Table::num(p.totalMw(), 1)
                  << " mW roofline (EvE " << Table::num(p.eveMw, 1)
                  << ", ADAM " << Table::num(p.adamMw, 1) << ", SRAM "
                  << Table::num(p.sramMw, 1) << ")\n\n";
    }

    // --- 2: functional EvE pipeline on real genomes -----------------------
    {
        neat::NeatConfig ncfg;
        ncfg.numInputs = 4;
        ncfg.numOutputs = 2;
        ncfg.nodeAddProb = 0.4;
        ncfg.connAddProb = 0.4;
        neat::NodeIndexer idx(ncfg.numOutputs);
        XorWow rng(7);
        auto p1 = neat::Genome::createNew(0, ncfg, idx, rng);
        auto p2 = neat::Genome::createNew(1, ncfg, idx, rng);
        for (int i = 0; i < 12; ++i) {
            p1.mutate(ncfg, idx, rng);
            p2.mutate(ncfg, idx, rng);
        }

        GeneCodec codec;
        const auto s1 = codec.encodeGenome(p1, ncfg);
        const auto s2 = codec.encodeGenome(p2, ncfg);
        long align_cycles = 0;
        const auto stream = alignStreams(s1, s2, codec, &align_cycles);

        EvePe pe(codec, peConfigFrom(ncfg, stream.size()), 1234);
        const auto res = pe.processChild(stream);
        const auto merged = mergeChild(res.childGenes, codec);
        const auto child = codec.decodeGenome(merged.genome, 42);

        std::cout << "Functional EvE PE run (one child):\n";
        std::cout << "  parent 1: " << p1.numNodeGenes() << " nodes + "
                  << p1.numConnectionGenes() << " conns ("
                  << s1.size() * 8 << " B packed)\n";
        std::cout << "  parent 2: " << p2.numNodeGenes() << " nodes + "
                  << p2.numConnectionGenes() << " conns\n";
        std::cout << "  aligned stream: " << stream.size()
                  << " gene pairs (" << align_cycles
                  << " split cycles)\n";
        std::cout << "  pipeline: " << res.cycles << " cycles; ops = "
                  << res.ops.crossoverOps << " crossover, "
                  << res.ops.cloneOps << " clone, "
                  << res.ops.perturbOps << " perturb, " << res.ops.addOps
                  << " add, " << res.ops.deleteOps << " delete\n";
        std::cout << "  child: " << child.numNodeGenes() << " nodes + "
                  << child.numConnectionGenes() << " conns, "
                  << merged.sramWrites << " SRAM writes, "
                  << merged.duplicatesDropped << " dup dropped\n\n";
    }

    // --- 3: NoC comparison on a real generation ---------------------------
    {
        core::SystemConfig cfg;
        cfg.envName = "AirRaid-ram-v0";
        cfg.maxGenerations = 3;
        cfg.seed = 11;
        core::System sys(cfg);
        sys.run();
        const auto &trace = sys.population().traces().back();

        Table t("one AirRaid-RAM generation on EvE: NoC comparison (" +
                std::to_string(soc.numEvePe) + " PEs)");
        t.setHeader({"NoC", "cycles", "SRAM reads", "reads/cycle",
                     "SRAM energy uJ", "total energy uJ"});
        for (auto noc :
             {NocTopology::PointToPoint, NocTopology::MulticastTree}) {
            SocParams s = soc;
            s.noc = noc;
            const auto st =
                EveEngine(s, energy).simulateGeneration(trace);
            t.addRow({noc == NocTopology::PointToPoint
                          ? "point-to-point"
                          : "multicast tree",
                      Table::integer(st.cycles),
                      Table::integer(st.sramReads),
                      Table::num(st.readsPerCycle, 1),
                      Table::num(st.sramEnergyJ * 1e6, 2),
                      Table::num(st.totalEnergyJ() * 1e6, 2)});
        }
        t.print(std::cout);
    }
    return 0;
}
