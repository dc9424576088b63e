/**
 * @file
 * Fig 4: evolution behavior as a function of generation —
 * (a) normalized fitness (multi-run mean and max) for CartPole,
 * LunarLander, MountainCar and Asterix-RAM; (b) total genes in the
 * population; (c) fittest-parent reuse (the GLR opportunity).
 */

#include <iostream>

#include "common/table.hh"
#include "core/experiment.hh"

using namespace genesys;
using namespace genesys::core;

namespace
{

constexpr int kRuns = 3;

std::vector<WorkloadRun>
runsFor(const std::string &env, int max_gens, uint64_t seed_base)
{
    auto spec = workload(env);
    spec.maxGenerations = max_gens;
    return runSeeds(spec, seed_base, kRuns, false);
}

void
printSeries(const std::string &title,
            const std::vector<std::pair<std::string, Series>> &series,
            int precision)
{
    Table t(title);
    std::vector<std::string> header{"gen"};
    size_t longest = 0;
    for (const auto &[name, s] : series) {
        header.push_back(name);
        longest = std::max(longest, s.size());
    }
    t.setHeader(header);
    for (size_t g = 0; g < longest; ++g) {
        std::vector<std::string> row{Table::integer(
            static_cast<long long>(g))};
        for (const auto &[name, s] : series) {
            row.push_back(g < s.size()
                              ? Table::num(s[g], precision)
                              : "-");
        }
        t.addRow(std::move(row));
    }
    t.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main()
{
    // --- Fig 4(a): normalized fitness ------------------------------------
    {
        std::vector<std::pair<std::string, Series>> series;
        struct Entry
        {
            const char *env;
            int gens;
        };
        for (const Entry e : {Entry{"CartPole_v0", 25},
                              Entry{"LunarLander_v2", 25},
                              Entry{"MountainCar_v0", 25},
                              Entry{"Asterix-ram-v0", 8}}) {
            const auto runs = runsFor(e.env, e.gens, 42);
            std::vector<Series> fits;
            int converged = 0;
            for (const auto &r : runs) {
                fits.push_back(r.fitnessSeries);
                converged += r.summary.solved ? 1 : 0;
            }
            series.emplace_back(std::string(e.env) + " (mean)",
                                meanSeries(fits));
            series.emplace_back(std::string(e.env) + " (max)",
                                maxSeries(fits));
            std::cout << e.env << ": " << converged << "/" << kRuns
                      << " runs reached target fitness within "
                      << e.gens << " generations\n";
        }
        std::cout << "\n";
        printSeries("Fig 4(a): normalized best fitness vs generation "
                    "(target = 1.0)",
                    series, 3);
    }

    // --- Fig 4(b): total genes in the population ---------------------------
    {
        std::vector<std::pair<std::string, Series>> series;
        for (const char *env : {"CartPole_v0", "LunarLander_v2",
                                "MountainCar_v0"}) {
            const auto runs = runsFor(env, 25, 43);
            std::vector<Series> genes;
            for (const auto &r : runs)
                genes.push_back(r.geneSeries);
            series.emplace_back(env, meanSeries(genes));
        }
        for (const char *env : {"AirRaid-ram-v0", "Alien-ram-v0",
                                "Asterix-ram-v0"}) {
            const auto runs = runsFor(env, 8, 44);
            std::vector<Series> genes;
            for (const auto &r : runs)
                genes.push_back(r.geneSeries);
            series.emplace_back(env, meanSeries(genes));
        }
        printSeries("Fig 4(b): total genes in population vs generation",
                    series, 0);
        std::cout << "Paper shape: small envs in the 10^3-10^4 band, "
                     "Atari-RAM in the ~10^5 band.\n\n";
    }

    // --- Fig 4(c): fittest parent reuse -----------------------------------------
    {
        std::vector<std::pair<std::string, Series>> series;
        for (const char *env :
             {"CartPole_v0", "MountainCar_v0", "LunarLander_v2",
              "Acrobot", "AirRaid-ram-v0", "Alien-ram-v0"}) {
            const bool atari = std::string(env).find("ram") !=
                               std::string::npos;
            const auto runs = runsFor(env, atari ? 8 : 25, 45);
            std::vector<Series> reuse;
            for (const auto &r : runs)
                reuse.push_back(r.reuseSeries);
            series.emplace_back(env, meanSeries(reuse));
        }
        printSeries("Fig 4(c): fittest-parent reuse vs generation "
                    "(children bred from the most-reused parent)",
                    series, 1);
        std::cout << "Paper shape: ~20 typical, up to ~80 for CartPole/"
                     "LunarLander out of 150 children.\n";
    }
    return 0;
}
