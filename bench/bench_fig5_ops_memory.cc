/**
 * @file
 * Fig 5: distributions across generations and runs of (a) the
 * crossover+mutation operation count per generation and (b) the
 * memory footprint per generation, for the Table I suite.
 */

#include <algorithm>
#include <iostream>

#include "common/stats.hh"
#include "common/table.hh"
#include "core/experiment.hh"

using namespace genesys;
using namespace genesys::core;

namespace
{

constexpr int kRuns = 3;

struct EnvSamples
{
    std::string env;
    std::vector<double> ops;
    std::vector<double> bytes;
};

EnvSamples
collect(const WorkloadSpec &base, uint64_t seed)
{
    EnvSamples s;
    s.env = base.envName;
    auto spec = base;
    spec.maxGenerations = base.isAtari ? 8 : 25;
    for (const auto &run : runSeeds(spec, seed, kRuns, false)) {
        for (double v : run.opsSeries) {
            if (v > 0)
                s.ops.push_back(v);
        }
        for (double v : run.footprintSeries)
            s.bytes.push_back(v);
    }
    return s;
}

void
distributionTable(const std::string &title,
                  const std::vector<EnvSamples> &samples, bool use_ops,
                  double unit, const std::string &unit_name)
{
    Table t(title);
    t.setHeader({"Environment", "samples", "min", "p25", "median",
                 "p75", "max", "mean (" + unit_name + ")"});
    for (const auto &s : samples) {
        const auto &v = use_ops ? s.ops : s.bytes;
        if (v.empty())
            continue;
        RunningStat rs;
        for (double x : v)
            rs.add(x);
        t.addRow({s.env,
                  Table::integer(static_cast<long long>(v.size())),
                  Table::num(rs.min() / unit, 2),
                  Table::num(percentile(v, 25) / unit, 2),
                  Table::num(percentile(v, 50) / unit, 2),
                  Table::num(percentile(v, 75) / unit, 2),
                  Table::num(rs.max() / unit, 2),
                  Table::num(rs.mean() / unit, 2)});
    }
    t.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main()
{
    std::vector<EnvSamples> samples;
    uint64_t seed = 7;
    for (const auto &spec : characterizationSuite())
        samples.push_back(collect(spec, seed++));

    distributionTable(
        "Fig 5(a): crossover+mutation ops per generation "
        "(distribution across generations x runs)",
        samples, true, 1e3, "Kops");
    std::cout << "Paper shape: thousands of ops for the small "
                 "environments, hundreds of thousands\nfor the "
                 "Atari-RAM class.\n\n";

    distributionTable(
        "Fig 5(b): memory footprint per generation "
        "(distribution across generations x runs)",
        samples, false, 1024.0, "KiB");
    std::cout << "Paper claim: overall footprint per generation below "
                 "1 MB for every application\n(Section III-D1) - the "
                 "1.5 MB Genome Buffer holds a full generation "
                 "on-chip.\n";

    // Explicit check of the <1MB / fits-on-chip claim, per env.
    std::cout << "\nGenome Buffer (1.5 MB) occupancy check:\n";
    for (const auto &s : samples) {
        double worst = 0.0;
        for (double b : s.bytes)
            worst = std::max(worst, b);
        const bool fits = worst <= 1.5 * 1024 * 1024;
        std::cout << "  " << s.env << ": max "
                  << Table::num(worst / 1048576.0, 2) << " MB -> "
                  << (fits ? "on-chip" : "DRAM-backed") << "\n";
    }
    std::cout
        << "The paper's suite stays under 1 MB (its Atari genomes are "
           "~770 genes, i.e. 6-action\ngames); our 18/10/9-action "
           "variants have proportionally larger initial genomes and\n"
           "exercise the DRAM-backed path the paper describes for "
           "oversized generations.\n";
    return 0;
}
