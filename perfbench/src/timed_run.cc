/**
 * @file
 * The timed run: identical passes of fixed-length System runs with
 * tracing off, each pass followed by timed resumes. Only System
 * construction, stepGeneration() and resumeFrom() are inside the timed
 * windows.
 */

#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>

#include "bench.hh"
#include "persist/snapshot.hh"

namespace perfbench
{

namespace fs = std::filesystem;
using namespace genesys;

namespace
{

std::string
seedDir(const std::string &dir, const char *kind, int i)
{
    return dir + "/work/" + kind + std::to_string(i);
}

/** Where the resumes find System seed i's snapshot. */
std::string
resumeSnapshotPath(const Workload &w, const std::string &dir, int i)
{
    if (w.persist) {
        return seedDir(dir, "s", i) + "/checkpoints/" +
               persist::snapshotFileName(w.generations - kResumeTail);
    }
    return seedDir(dir, "snapshot", i) + ".gsnp";
}

/**
 * Snapshot a System at its generation barrier the way System's own
 * checkpointing does, for workloads that run with persistence off.
 */
void
writeBarrierSnapshot(const core::System &sys, const std::string &path)
{
    persist::SystemSnapshot snap;
    snap.envName = sys.config().envName;
    snap.seed = sys.config().seed;
    snap.populationSize = sys.neatConfig().populationSize;
    snap.numInputs = sys.neatConfig().numInputs;
    snap.numOutputs = sys.neatConfig().numOutputs;
    snap.feedForward = sys.neatConfig().feedForward;
    snap.numericsTier = sys.numericsTier();
    snap.population = sys.population().capture();
    persist::writeSnapshotFile(snap, path);
}

} // namespace

RunResult
timedRun(const Workload &w, uint64_t seed, double seconds,
         const std::string &dir)
{
    RunResult res;
    const auto start = Clock::now();
    const int snapshotAt = w.generations - kResumeTail;
    const int resumes = std::min(kResumes, w.subSeeds);
    const size_t perPass =
        static_cast<size_t>(w.subSeeds) * static_cast<size_t>(w.generations);
    auto index = [&](int i, int g) {
        return static_cast<size_t>(i) * static_cast<size_t>(w.generations) +
               static_cast<size_t>(g);
    };
    std::vector<double> setupS;
    // Per generation: the fastest wall and CPU time any pass took for
    // it, and pass 0's deterministic outputs.
    std::vector<double> bestWall(perPass, 1e300);
    std::vector<double> bestCpu(perPass, 1e300);
    std::vector<double> resumeMs;
    std::vector<uint64_t> digests(perPass, 0);
    std::vector<long> steps(perPass, 0);
    double socUj = 0.0;
    double socMs = 0.0;

    // A fresh System resumed kResumeTail generations before the end of
    // System seed i. With `check`, it then runs the tail, which must
    // reproduce the uninterrupted run exactly.
    auto resume = [&](int i, bool check) {
        const std::string rdir = seedDir(dir, "r", i);
        fs::remove_all(rdir);
        fs::create_directories(rdir);
        int ran = 0;
        try {
            const core::SystemConfig cfg =
                systemConfig(w, systemSeed(seed, i), rdir);
            placeSystem(w, i);
            const auto t0 = Clock::now();
            core::System sys(cfg);
            sys.resumeFrom(resumeSnapshotPath(w, dir, i));
            resumeMs.push_back(secondsSince(t0) * 1e3);
            for (int g = snapshotAt; check && g < w.generations; ++g) {
                ++res.attempted;
                ++ran;
                sys.stepGeneration();
                if (reportDigest(sys.reports().back()) != digests[index(i, g)])
                    res.fail("resumed system seed " + std::to_string(i) +
                             " differs at generation " + std::to_string(g));
            }
        } catch (const std::exception &e) {
            res.attempted += check ? kResumeTail - ran : 0;
            res.fail(std::string("resume threw: ") + e.what(),
                     check ? kResumeTail - ran + 1 : 0);
        }
    };

    int passes = 0;
    for (int pass = 0; pass < w.passes; ++pass) {
        double passWall = 0.0;
        for (int i = 0; i < w.subSeeds; ++i) {
            const std::string sdir = seedDir(dir, "s", i);
            fs::remove_all(sdir);
            fs::create_directories(sdir);
            const core::SystemConfig cfg =
                systemConfig(w, systemSeed(seed, i), sdir);

            placeSystem(w, i);
            const auto t0 = Clock::now();
            auto sys = std::make_unique<core::System>(cfg);
            setupS.push_back(secondsSince(t0));
            if (pass == 0 && i == 0 && !checkResolvedConfig(w, *sys))
                res.fail("the System resolved a configuration other "
                         "than the pinned one",
                         0);

            for (int g = 0; g < w.generations; ++g) {
                const size_t k = index(i, g);
                ++res.attempted;
                const double c0 = cpuSeconds();
                const auto g0 = Clock::now();
                try {
                    sys->stepGeneration();
                } catch (const std::exception &e) {
                    res.fail(std::string("generation threw: ") + e.what(),
                             w.generations - g);
                    res.attempted += w.generations - g - 1;
                    break;
                }
                const double dt = secondsSince(g0);
                const double dc = cpuSeconds() - c0;
                passWall += dt;
                bestWall[k] = std::min(bestWall[k], dt);
                bestCpu[k] = std::min(bestCpu[k], dc);

                const core::GenerationReport &r = sys->reports().back();
                const uint64_t d = reportDigest(r);
                if (!std::isfinite(r.algo.bestFitness) ||
                    !std::isfinite(r.algo.meanFitness)) {
                    res.fail("non-finite fitness in generation " +
                             std::to_string(g));
                } else if (pass == 0) {
                    digests[k] = d;
                    steps[k] = r.inferenceSteps;
                    socUj += (r.hw.evolutionEnergyJ + r.hw.inferenceEnergyJ) *
                             1e6;
                    socMs += (r.hw.evolutionSeconds +
                              r.hw.inferenceSeconds()) *
                             1e3;
                } else if (digests[k] != d) {
                    res.fail("pass " + std::to_string(pass) +
                             " differs from pass 0 at system seed " +
                             std::to_string(i) + ", generation " +
                             std::to_string(g));
                }

                if (pass == 0 && !w.persist && i < resumes &&
                    g + 1 == snapshotAt)
                    writeBarrierSnapshot(*sys, resumeSnapshotPath(w, dir, i));
            }
            sys.reset(); // telemetry flushes here, outside the timing
        }
        for (int i = 0; i < resumes; ++i)
            resume(i, pass == 0);
        ++passes;
        std::cout << "pass " << pass << ": "
                  << static_cast<double>(perPass) / passWall
                  << " gens/s\n";

        // The pass count is part of the workload; the time budget only
        // cuts a run short on a machine far slower than intended.
        const double elapsed = secondsSince(start);
        if (passes >= 3 && elapsed + elapsed / passes > 2.0 * seconds)
            break;
    }

    double wall = 0.0;
    double cpu = 0.0;
    long totalSteps = 0;
    std::vector<double> genMs;
    for (size_t k = 0; k < perPass; ++k) {
        wall += bestWall[k];
        cpu += bestCpu[k];
        totalSteps += steps[k];
        genMs.push_back(bestWall[k] * 1e3);
    }
    const double gens = static_cast<double>(perPass);
    res.add("gens_per_s", gens / wall, "1/s");
    res.add("env_steps_per_s", static_cast<double>(totalSteps) / wall, "1/s");
    res.add("gen_ms_p50", percentile(genMs, 50.0), "ms");
    res.add("gen_ms_p90", percentile(genMs, 90.0), "ms");
    res.add("cpu_ms_per_gen", cpu * 1e3 / gens, "ms");
    res.add("setup_s", median(setupS), "s");
    res.add("peak_rss_mb", peakRssMb(), "MiB");
    res.add("soc_uj_per_gen", socUj / gens, "uJ");
    res.add("soc_ms_per_gen", socMs / gens, "ms");
    // Set-up-like costs are reported as medians: unlike a generation,
    // their fastest sample depends on allocator and file-system state
    // left behind by the previous System.
    res.add("resume_ms", median(resumeMs), "ms");
    std::cout << "passes " << passes << " x " << w.subSeeds
              << " systems x " << w.generations << " generations; "
              << resumes << " snapshots resumed after every pass\n";
    return res;
}

} // namespace perfbench
