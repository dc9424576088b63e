/**
 * @file
 * perfbench — the benchmark of record for closed-loop GeneSys
 * evolution. Normally launched through perfbench/run.py, which builds
 * it first:
 *
 *     perfbench --workload airraid-4t --seed 1 --seconds 30 --trace 0
 *               [--out-dir DIR]
 *
 * --trace 0 measures the end-to-end metrics with tracing off; --trace 1
 * runs the traced loop and the single-thread replay for the per-layer
 * metrics. Every line before the last is for people; the last line of
 * standard output is one JSON object:
 *
 *     {"correct": true, "attempted": N, "failed": 0,
 *      "metrics": {"gens_per_s": {"value": 29.6, "unit": "1/s"}, ...}}
 *
 * The exit code is 0 only when every correctness check passed.
 */

#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hh"

namespace
{

std::string
jsonNumber(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S"
                 " --trace 0|1 [--out-dir DIR]\nworkloads:";
    for (const perfbench::Workload &w : perfbench::workloads())
        std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string seedArg;
    std::string secondsArg;
    std::string traceArg;
    std::string outDir = ".bench_build/perfbench-out";
    for (int a = 1; a < argc; ++a) {
        const std::string flag = argv[a];
        if (a + 1 >= argc)
            return usage("missing value for " + flag);
        const std::string value = argv[++a];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seedArg = value;
        else if (flag == "--seconds")
            secondsArg = value;
        else if (flag == "--trace")
            traceArg = value;
        else if (flag == "--out-dir")
            outDir = value;
        else
            return usage("unknown flag " + flag);
    }

    const perfbench::Workload *w = perfbench::findWorkload(workload);
    if (!w)
        return usage("unknown workload \"" + workload + "\"");
    uint64_t seed = 0;
    double seconds = 0.0;
    {
        const auto *e = seedArg.data() + seedArg.size();
        const auto rs = std::from_chars(seedArg.data(), e, seed);
        const auto *f = secondsArg.data() + secondsArg.size();
        const auto rt = std::from_chars(secondsArg.data(), f, seconds);
        if (seedArg.empty() || rs.ec != std::errc() || rs.ptr != e)
            return usage("--seed needs a non-negative integer");
        if (secondsArg.empty() || rt.ec != std::errc() || rt.ptr != f ||
            !(seconds > 0.0))
            return usage("--seconds needs a positive number");
        if (traceArg != "0" && traceArg != "1")
            return usage("--trace needs 0 or 1");
    }

    // Pinned configuration: nothing inherited may change what a
    // workload measures.
    const auto inherited = perfbench::inheritedConfigVariables();
    if (!inherited.empty()) {
        std::cerr << "perfbench: refusing to run with";
        for (const std::string &v : inherited)
            std::cerr << " " << v;
        std::cerr << " set; they would override the pinned workload "
                     "configuration\n";
        return 2;
    }

    const bool traced = traceArg == "1";
    const std::string dir = outDir + "/" + w->name + "-seed" + seedArg +
                            (traced ? "-traced" : "-timed");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    perfbench::RunResult res;
    try {
        res = traced ? perfbench::tracedRun(*w, seed, seconds, dir)
                     : perfbench::timedRun(*w, seed, seconds, dir);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: run aborted: " << e.what() << "\n";
        return 1;
    }
    std::filesystem::remove_all(dir + "/work");

    const double failedFrac =
        res.attempted > 0 ? static_cast<double>(res.failed) /
                                static_cast<double>(res.attempted)
                          : 1.0;
    for (const perfbench::Metric &m : res.metrics)
        std::cout << "  " << m.name << " = " << jsonNumber(m.value) << " "
                  << m.unit << "\n";
    std::cout << "  failed_frac = " << jsonNumber(failedFrac) << " ("
              << res.failed << " of " << res.attempted
              << " generations)\n";
    std::cout << "correctness checks: "
              << (res.correct ? "all passed" : "FAILED") << "\n";

    std::cout << "{\"correct\": " << (res.correct ? "true" : "false")
              << ", \"attempted\": " << res.attempted
              << ", \"failed\": " << res.failed << ", \"metrics\": {";
    for (size_t i = 0; i < res.metrics.size(); ++i) {
        const perfbench::Metric &m = res.metrics[i];
        std::cout << (i ? ", " : "") << "\"" << m.name
                  << "\": {\"value\": " << jsonNumber(m.value)
                  << ", \"unit\": \"" << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return res.correct ? 0 : 1;
}
