#include "hw/eve.hh"

#include <algorithm>

#include "common/logging.hh"

namespace genesys::hw
{

std::vector<std::vector<size_t>>
allocateWaves(const neat::EvolutionTrace &trace, int num_pe)
{
    GENESYS_ASSERT(num_pe >= 1, "need at least one PE");

    std::vector<size_t> order;
    for (size_t i = 0; i < trace.children.size(); ++i) {
        if (!trace.children[i].isElite)
            order.push_back(i);
    }
    // Greedy grouping: cluster children by (parent1, parent2) so a
    // wave draws from as few distinct parent genomes as possible.
    std::sort(order.begin(), order.end(), [&trace](size_t a, size_t b) {
        const auto &ca = trace.children[a];
        const auto &cb = trace.children[b];
        if (ca.parent1Key != cb.parent1Key)
            return ca.parent1Key < cb.parent1Key;
        if (ca.parent2Key != cb.parent2Key)
            return ca.parent2Key < cb.parent2Key;
        return a < b;
    });

    std::vector<std::vector<size_t>> waves;
    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(num_pe)) {
        const size_t end =
            std::min(order.size(), start + static_cast<size_t>(num_pe));
        waves.emplace_back(order.begin() + static_cast<long>(start),
                           order.begin() + static_cast<long>(end));
    }
    return waves;
}

EveGenStats
EveEngine::simulateGeneration(const neat::EvolutionTrace &trace,
                              long generation_bytes) const
{
    EveGenStats s;

    const auto waves = allocateWaves(trace, soc_.numEvePe);
    s.waves = static_cast<int>(waves.size());

    long busy_pe_cycles = 0;

    for (const auto &wave : waves) {
        // Per-child pipeline occupancy: 2-cycle header + one cycle
        // per aligned stream slot + stalls for genes added by the
        // Add Gene Engine + 4-cycle drain.
        long wave_compute_cycles = 0;
        for (size_t idx : wave) {
            const auto &c = trace.children[idx];
            const long child_cycles = 2 +
                                      static_cast<long>(
                                          c.alignedStreamLen) +
                                      c.ops.addOps + 4;
            wave_compute_cycles =
                std::max(wave_compute_cycles, child_cycles);
            busy_pe_cycles += child_cycles;
            s.peOps += c.ops.total();
            ++s.childrenBred;
        }

        const WaveTraffic traffic = waveTraffic(soc_.noc, trace, wave);
        s.sramReads += traffic.sramReads;
        s.geneDeliveries += traffic.deliveries;

        // The Genome Buffer's banks cap the delivery bandwidth; a
        // point-to-point NoC demanding hundreds of reads per cycle
        // becomes bandwidth bound.
        s.cycles += buffer_.serveCycles(traffic.sramReads,
                                        wave_compute_cycles);
    }

    // Child genomes written back through Gene Merge (elites stay in
    // place and cost nothing).
    for (const auto &c : trace.children) {
        if (!c.isElite)
            s.sramWrites += static_cast<long>(c.childGenes());
    }

    // DRAM spill if two generations (parents + children) exceed the
    // buffer.
    long resident = generation_bytes;
    if (resident == 0) {
        resident = 8 * (trace.totalChildGenes() +
                        trace.totalParentGenesStreamed() /
                            std::max<long>(1, s.childrenBred));
    }
    s.dramBytes = buffer_.dramSpillBytes(resident);

    s.readsPerCycle =
        s.cycles > 0 ? static_cast<double>(s.sramReads) /
                           static_cast<double>(s.cycles)
                     : 0.0;
    s.peUtilization =
        s.cycles > 0 ? static_cast<double>(busy_pe_cycles) /
                           (static_cast<double>(s.cycles) * soc_.numEvePe)
                     : 0.0;

    s.sramEnergyJ = s.sramReads * energy_.sramReadJ() +
                    s.sramWrites * energy_.sramWriteJ();
    s.peEnergyJ = s.peOps * energy_.evePeOpJ();
    s.nocEnergyJ = s.geneDeliveries * energy_.nocTraversalJ();
    s.dramEnergyJ = s.dramBytes * energy_.dramByteJ();
    return s;
}

} // namespace genesys::hw
