#include "neat/population.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/check.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"

namespace genesys::neat
{

namespace
{

/**
 * Checked-build walk of the speciation result: every species member
 * must name a live genome, and the species together must partition
 * the population exactly (each genome in one and only one species).
 */
void
dcheckSpeciesPartition(const SpeciesSet &species,
                       const std::map<int, Genome> &population)
{
    if (!checksEnabled())
        return;
    size_t member_total = 0;
    for (const auto &[sk, sp] : species.species()) {
        member_total += sp.memberKeys.size();
        for (int gk : sp.memberKeys) {
            GENESYS_DCHECK(population.count(gk) == 1,
                           "species " << sk << " holds member " << gk
                                      << " with no genome in the"
                                      << " population");
        }
    }
    GENESYS_DCHECK(member_total == population.size(),
                   "species membership covers "
                       << member_total << " genomes, population holds "
                       << population.size()
                       << " (partition violated)");
    GENESYS_DCHECK(!population.empty(),
                   "population empty after reproduction");
}

/**
 * Replace every non-finite fitness in `fits` with the lowest finite
 * fitness of the batch (0.0 when none is finite), counting each in
 * the `fitness.non_finite` metric. NaN or ±inf reaching the sort
 * comparators in reproduction and stagnation would be undefined
 * behaviour; ranking such a genome last keeps evolution going.
 */
void
replaceNonFiniteFitness(std::vector<double> &fits)
{
    double lowest = std::numeric_limits<double>::infinity();
    long bad = 0;
    for (double f : fits) {
        if (std::isfinite(f))
            lowest = std::min(lowest, f);
        else
            ++bad;
    }
    if (bad == 0)
        return;
    if (!std::isfinite(lowest))
        lowest = 0.0;
    for (double &f : fits) {
        if (!std::isfinite(f))
            f = lowest;
    }
    if (obs::MetricsRegistry *m = obs::MetricsRegistry::active())
        m->counter("fitness.non_finite").add(bad);
}

} // namespace

Population::Population(const NeatConfig &cfg, uint64_t seed)
    : cfg_(cfg), reproduction_(cfg_), speciesSet_(cfg_), rng_(seed)
{
    population_ = reproduction_.createNewPopulation(rng_);
    speciesSet_.speciate(population_, generation_);
    dcheckSpeciesPartition(speciesSet_, population_);
}

GenerationStats
Population::collectStats(const EvolutionTrace *trace) const
{
    GenerationStats s;
    s.generation = generation_;

    double best = -std::numeric_limits<double>::infinity();
    double sum = 0.0;
    for (const auto &[gk, g] : population_) {
        GENESYS_ASSERT(g.hasFitness(), "genome " << gk << " unevaluated");
        if (g.fitness() > best) {
            best = g.fitness();
            s.bestGenomeKey = gk;
        }
        sum += g.fitness();
        s.totalNodeGenes += static_cast<long>(g.numNodeGenes());
        s.totalConnectionGenes += static_cast<long>(g.numConnectionGenes());
        s.memoryBytes += static_cast<long>(g.memoryBytes());
    }
    s.totalGenes = s.totalNodeGenes + s.totalConnectionGenes;
    s.bestFitness = best;
    s.meanFitness = sum / static_cast<double>(population_.size());
    s.numSpecies = static_cast<int>(speciesSet_.count());

    if (trace) {
        s.evolutionOps = trace->totalOps();
        s.opBreakdown = trace->opTotals();
        s.maxParentReuse = trace->maxParentReuse();
    }
    return s;
}

PopulationSnapshot
Population::capture() const
{
    PopulationSnapshot s;
    s.genomes = population_;
    s.generation = generation_;
    s.rngState = rng_.saveState();
    s.species = speciesSet_.species();
    s.nextSpeciesKey = speciesSet_.nextSpeciesKey();
    s.nextGenomeKey = reproduction_.genomesCreated();
    s.nextNodeKey = reproduction_.nodeIndexer().peek();
    s.hasBest = hasBest_;
    if (hasBest_)
        s.bestGenome = bestGenome_;
    if (!traces_.empty())
        s.traces.push_back(traces_.back());
    return s;
}

void
Population::restore(PopulationSnapshot snapshot)
{
    population_ = std::move(snapshot.genomes);
    generation_ = snapshot.generation;
    rng_.loadState(snapshot.rngState);
    speciesSet_.restore(std::move(snapshot.species),
                        snapshot.nextSpeciesKey);
    reproduction_.restore(snapshot.nextGenomeKey, snapshot.nextNodeKey);
    hasBest_ = snapshot.hasBest;
    bestGenome_ = std::move(snapshot.bestGenome);
    traces_ = std::move(snapshot.traces);
    history_.clear();
    lastPhases_ = StepPhaseTimes{};
    trimTraces();
}

bool
Population::step(const FitnessFn &fitness)
{
    // Scalar fallback: adapt to the batched path one genome at a
    // time, preserving ascending-key evaluation order.
    return stepBatch([&fitness](const std::vector<GenomeHandle> &batch) {
        std::vector<double> out;
        out.reserve(batch.size());
        for (const GenomeHandle &h : batch)
            out.push_back(fitness(*h.genome));
        return out;
    });
}

bool
Population::stepBatch(const BatchFitnessFn &fitness)
{
    lastPhases_ = StepPhaseTimes{};
    // Evaluate every genome (on the SoC: steps 1-6 of the
    // walkthrough, leveraging population-level parallelism). The
    // whole unevaluated generation goes to the callback as one
    // batch, in ascending key order.
    std::vector<GenomeHandle> batch;
    batch.reserve(population_.size());
    for (const auto &[gk, g] : population_) {
        if (!g.hasFitness())
            batch.push_back({gk, &g});
    }
    if (!batch.empty()) {
        std::vector<double> fits = fitness(batch);
        GENESYS_ASSERT(fits.size() == batch.size(),
                       "batch fitness returned "
                           << fits.size() << " values for "
                           << batch.size() << " genomes");
        replaceNonFiniteFitness(fits);
        for (size_t i = 0; i < batch.size(); ++i)
            population_.at(batch[i].key).setFitness(fits[i]);
    }

    // Record stats for this generation; the trace that *created* it
    // was recorded when reproduce() ran (empty for generation 0).
    const EvolutionTrace *trace =
        traces_.empty() ? nullptr : &traces_.back();
    history_.push_back(collectStats(trace));
    const GenerationStats &stats = history_.back();

    const Genome &gen_best = population_.at(stats.bestGenomeKey);
    if (!hasBest_ || gen_best.fitness() > bestGenome_.fitness()) {
        bestGenome_ = gen_best;
        hasBest_ = true;
    }

    if (stats.bestFitness >= cfg_.fitnessThreshold)
        return true;

    using Clock = std::chrono::steady_clock;
    auto seconds_since = [](Clock::time_point t0) {
        return std::chrono::duration<double>(Clock::now() - t0)
            .count();
    };

    // Breed generation n+1 (steps 7-10: Gene Selector + EvE). This
    // and speciation below are the serial generation-barrier phases;
    // their wall-clock lands in lastStepPhases() (and on the span
    // timeline) so the barrier-idle fraction is a measured number.
    EvolutionTrace trace_out;
    const auto r0 = Clock::now();
    {
        obs::Span span("reproduce", "phase", generation_);
        auto next = reproduction_.reproduce(speciesSet_, population_,
                                            generation_, rng_,
                                            trace_out);
        if (next.empty()) {
            if (!cfg_.resetOnExtinction)
                fatal("complete extinction in generation " +
                      std::to_string(generation_));
            warn("complete extinction; restarting population");
            next = reproduction_.createNewPopulation(rng_);
            trace_out.children.clear();
        }
        population_ = std::move(next);
    }
    lastPhases_.reproduceSeconds = seconds_since(r0);
    traces_.push_back(std::move(trace_out));
    trimTraces();

    ++generation_;
    const auto s0 = Clock::now();
    {
        obs::Span span("speciate", "phase", generation_);
        speciesSet_.speciate(population_, generation_);
    }
    dcheckSpeciesPartition(speciesSet_, population_);
    lastPhases_.speciateSeconds = seconds_since(s0);
    return false;
}

RunResult
Population::run(const FitnessFn &fitness, int max_generations)
{
    return runBatch(
        [&fitness](const std::vector<GenomeHandle> &batch) {
            std::vector<double> out;
            out.reserve(batch.size());
            for (const GenomeHandle &h : batch)
                out.push_back(fitness(*h.genome));
            return out;
        },
        max_generations);
}

RunResult
Population::runBatch(const BatchFitnessFn &fitness, int max_generations)
{
    RunResult result;
    for (int i = 0; i < max_generations; ++i) {
        if (stepBatch(fitness)) {
            result.solved = true;
            break;
        }
    }
    result.generations = generation_ + (result.solved ? 1 : 0);
    if (hasBest_) {
        result.bestFitness = bestGenome_.fitness();
        result.bestGenome = bestGenome_;
    }
    return result;
}

} // namespace genesys::neat
