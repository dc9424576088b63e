#include "exec/eval_engine.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>

#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"

namespace genesys::exec
{

long
BatchStats::lockstepSteps() const
{
    long total = 0;
    for (const auto &w : waves)
        total += w.lockstepSteps;
    return total;
}

long
BatchStats::totalInferences() const
{
    long total = 0;
    for (const auto &w : waves)
        total += w.totalInferences;
    return total;
}

double
BatchStats::meanOccupancy() const
{
    if (waves.empty() || waveWidth <= 0)
        return 0.0;
    long slots = 0;
    long used = 0;
    for (const auto &w : waves) {
        slots += waveWidth;
        used += w.genomes;
    }
    return static_cast<double>(used) / static_cast<double>(slots);
}

double
BatchStats::lockstepEfficiency() const
{
    long slot_steps = 0;
    for (const auto &w : waves)
        slot_steps += w.lockstepSteps * w.genomes;
    return slot_steps > 0 ? static_cast<double>(totalInferences()) /
                                static_cast<double>(slot_steps)
                          : 0.0;
}

double
BatchStats::laneOccupancy() const
{
    return waveLaneSlotSteps > 0
               ? static_cast<double>(waveActiveLaneSteps) /
                     static_cast<double>(waveLaneSlotSteps)
               : 0.0;
}

void
applyNumericsFromEnv(EvalEngineConfig &cfg)
{
    const char *tier = std::getenv("GENESYS_NUMERICS");
    if (tier == nullptr || *tier == '\0')
        return;
    cfg.numericsTier = nn::numericsTierFromName(tier);
}

uint64_t
EvalEngine::mixSeed(uint64_t base, uint64_t genomeKey, uint64_t episode)
{
    return deriveSeed(deriveSeed(base, genomeKey), episode);
}

EvalEngine::SeedFn
EvalEngine::sharedEpisodeSeeds(uint64_t base)
{
    return [base](int /*genomeKey*/, int episode) {
        return deriveSeed(base, static_cast<uint64_t>(episode));
    };
}

EvalEngine::SeedFn
EvalEngine::perGenomeSeeds(uint64_t base)
{
    return [base](int genomeKey, int episode) {
        return mixSeed(base, static_cast<uint64_t>(genomeKey),
                       static_cast<uint64_t>(episode));
    };
}

namespace
{

/** Default lane width of a worker shard at one episode per genome. */
constexpr int kDefaultWaveLanes = 2;

/**
 * Does `waveLanes` size the shards? Shard sizing (resolveShardLanes)
 * and usesHeterogeneousWaves both read this one predicate.
 */
bool
wavesActive(const EvalEngineConfig &cfg)
{
    return cfg.batchEpisodes && cfg.heterogeneousLanes &&
           cfg.episodes == 1;
}

/** Wave-shard lanes `cfg` needs (1 when the wave path is inactive). */
int
resolveWaveLanes(const EvalEngineConfig &cfg)
{
    if (!wavesActive(cfg))
        return 1;
    return cfg.waveLanes > 0 ? cfg.waveLanes : kDefaultWaveLanes;
}

/**
 * Environment lanes per worker shard, i.e. the width of every
 * evaluateWave call: `waveLanes` at one episode per genome, one
 * genome's E episodes side by side when batching, and a single lane
 * (one episode at a time) when batching is off.
 */
int
resolveShardLanes(const EvalEngineConfig &cfg)
{
    if (wavesActive(cfg))
        return resolveWaveLanes(cfg);
    return cfg.batchEpisodes ? std::max(1, cfg.episodes) : 1;
}

} // namespace

EvalEngine::EvalEngine(EvalEngineConfig cfg)
    : cfg_(std::move(cfg)),
      pool_(ThreadPool::resolveThreads(cfg_.numThreads)),
      envs_(cfg_.envName, pool_.size(), resolveShardLanes(cfg_)),
      waveScratch_(static_cast<size_t>(pool_.size()))
{
    GENESYS_ASSERT(cfg_.episodes > 0,
                   "EvalEngine needs episodes > 0, got "
                       << cfg_.episodes);
    cfg_.numThreads = pool_.size();
    cfg_.waveLanes = resolveWaveLanes(cfg_);
}

bool
EvalEngine::usesHeterogeneousWaves() const
{
    return wavesActive(cfg_);
}

void
EvalEngine::runParallel(std::size_t count,
                        const std::function<void(std::size_t, int)> &body)
{
    // An exception escaping a pool worker's jobBody_ would terminate
    // the process (workers have no handler); capture the first one
    // here and rethrow it on the calling thread once the batch joins,
    // so a bad genome (e.g. a plan-compile validation failure)
    // surfaces as an ordinary exception at any thread count.
    std::mutex mutex;
    std::exception_ptr first;
    pool_.parallelFor(count, [&](std::size_t i, int worker) {
        try {
            body(i, worker);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex);
            if (!first)
                first = std::current_exception();
        }
    });
    if (first)
        std::rethrow_exception(first);
}

std::vector<GenomeEvalResult>
EvalEngine::evaluateGeneration(const std::vector<neat::GenomeHandle> &batch,
                               const neat::NeatConfig &cfg,
                               const SeedFn &seedFor)
{
    std::vector<GenomeEvalResult> results(batch.size());
    obs::Span batch_span("eval.batch", "evaluate",
                         static_cast<int64_t>(batch.size()));

    // New generation: keep plans for keys that survived (elites are
    // copied unchanged under the same key — the paper's "genome stays
    // resident in the Genome Buffer, no EvE work"), drop the rest so
    // the cache stays bounded at the batch size. Elite genomes are
    // therefore never recompiled.
    std::vector<int> batchKeys;
    batchKeys.reserve(batch.size());
    for (const neat::GenomeHandle &h : batch)
        batchKeys.push_back(h.key);
    planCache_.beginGeneration(batchKeys);

    lastBatch_ = BatchStats{};
    evaluateWaves(batch, cfg, seedFor, results);

    // Map the batch onto EvE PE-array waves: genomes fill waves in
    // submission order, one PE per genome; each wave runs in BSP
    // lockstep until its longest episode set finishes.
    const int width =
        cfg_.waveWidth > 0
            ? cfg_.waveWidth
            : std::max<int>(1, static_cast<int>(batch.size()));
    lastBatch_.waveWidth = width;
    for (std::size_t start = 0; start < results.size();
         start += static_cast<std::size_t>(width)) {
        const std::size_t end =
            std::min(results.size(),
                     start + static_cast<std::size_t>(width));
        BatchWave wave;
        wave.genomes = static_cast<int>(end - start);
        for (std::size_t i = start; i < end; ++i) {
            wave.totalInferences += results[i].detail.inferences;
            wave.lockstepSteps = std::max(
                wave.lockstepSteps, results[i].detail.inferences);
        }
        lastBatch_.waves.push_back(wave);
    }

    publishMetrics(results);
    return results;
}

void
EvalEngine::publishMetrics(const std::vector<GenomeEvalResult> &results)
{
    obs::MetricsRegistry *m = obs::MetricsRegistry::active();
    if (m == nullptr)
        return;

    // Batch totals + the episode loop's occupancy counters — the
    // registry form of BatchStats, so downstream consumers read one
    // metrics surface instead of plumbing engine structs around.
    m->counter("eval.genomes").add(static_cast<long>(results.size()));
    m->counter("eval.inferences").add(lastBatch_.totalInferences());
    m->counter("eval.supersteps").add(lastBatch_.lockstepSteps());
    m->counter("wave.supersteps").add(lastBatch_.waveSupersteps);
    m->counter("wave.lane_slot_steps").add(lastBatch_.waveLaneSlotSteps);
    m->counter("wave.active_lane_steps")
        .add(lastBatch_.waveActiveLaneSteps);
    m->counter("wave.refills").add(lastBatch_.waveRefills);
    m->counter("wave.grouped_lane_activations")
        .add(lastBatch_.waveGroupedLaneActivations);
    m->gauge("wave.lane_occupancy").set(lastBatch_.laneOccupancy());
    m->gauge("eval.worker_busy_max_ms").set(lastBatch_.workerBusyMaxMs);
    m->gauge("eval.worker_busy_mean_ms").set(lastBatch_.workerBusyMeanMs);

    // Plan-cache lifetime counters, differenced so the registry's
    // counters track per-run increments exactly.
    const long compiles = planCache_.compiles();
    const long hits = planCache_.hits();
    const long carried = planCache_.carriedOver();
    const long races = planCache_.racesDiscarded();
    const long compile_ns = planCache_.compileNs();
    m->counter("plan.compiles").add(compiles - seenCompiles_);
    m->counter("plan.cache_hits").add(hits - seenHits_);
    m->counter("plan.carried_over").add(carried - seenCarriedOver_);
    m->counter("plan.races_discarded").add(races - seenRaces_);
    m->counter("plan.compile_ns").add(compile_ns - seenCompileNs_);
    seenCompiles_ = compiles;
    seenHits_ = hits;
    seenCarriedOver_ = carried;
    seenRaces_ = races;
    seenCompileNs_ = compile_ns;

    long episodes = 0;
    auto &steps_histo = m->histogram("eval.episode_steps");
    for (const GenomeEvalResult &r : results) {
        episodes += static_cast<long>(r.detail.episodes.size());
        for (const env::EpisodeResult &e : r.detail.episodes)
            steps_histo.observe(static_cast<double>(e.steps));
    }
    m->counter("eval.episodes").add(episodes);
}

namespace
{

/**
 * The generation's work queue: one atomic cursor over the batch,
 * drawn from by every worker's episode loop. Claiming genome g
 * fetches its plan through the cache — compiling it on first claim —
 * and hands out its E episodes, whose results go to slots
 * g * E .. g * E + E - 1. Which worker claims which genome never
 * changes a result: each episode is a pure function of (plan, seed).
 */
class GenomeQueue final : public env::WaveSource
{
  public:
    GenomeQueue(const std::vector<neat::GenomeHandle> &batch,
                const neat::NeatConfig &cfg,
                const EvalEngine::SeedFn &seedFor, int episodes,
                nn::NumericsTier tier, nn::PlanCache &cache,
                std::vector<GenomeEvalResult> &results)
        : batch_(batch), cfg_(cfg), seedFor_(seedFor),
          episodes_(episodes), tier_(tier), cache_(cache),
          results_(results)
    {
    }

    int groupSize() const override { return episodes_; }

    bool claim(std::span<env::WaveItem> group) override
    {
        const std::size_t g =
            cursor_.fetch_add(1, std::memory_order_relaxed);
        if (g >= batch_.size())
            return false;
        const neat::GenomeHandle &h = batch_[g];
        GenomeEvalResult &r = results_[g];
        r.genomeKey = h.key;
        r.plan = cache_.acquire(h.key, *h.genome, cfg_, tier_);
        const std::size_t E = static_cast<std::size_t>(episodes_);
        for (std::size_t e = 0; e < E; ++e)
            group[e] = {r.plan.get(),
                        seedFor_(h.key, static_cast<int>(e)), g * E + e};
        return true;
    }

  private:
    const std::vector<neat::GenomeHandle> &batch_;
    const neat::NeatConfig &cfg_;
    const EvalEngine::SeedFn &seedFor_;
    const int episodes_;
    const nn::NumericsTier tier_;
    nn::PlanCache &cache_;
    std::vector<GenomeEvalResult> &results_;
    std::atomic<std::size_t> cursor_{0};
};

} // namespace

void
EvalEngine::evaluateWaves(const std::vector<neat::GenomeHandle> &batch,
                          const neat::NeatConfig &cfg,
                          const SeedFn &seedFor,
                          std::vector<GenomeEvalResult> &results)
{
    if (batch.empty())
        return;

    // One pass, one barrier: every worker runs one episode loop over
    // its private lane shard, claiming genomes from the shared queue
    // until it runs dry. A genome compiles on claim (the cache keeps
    // elites' plans across generations), so compiling overlaps other
    // workers' episodes, and a worker stuck on long episodes simply
    // claims fewer genomes instead of gating the generation.
    const std::size_t E = static_cast<std::size_t>(cfg_.episodes);
    episodeSlots_.resize(batch.size() * E);
    GenomeQueue queue(batch, cfg, seedFor, cfg_.episodes,
                      cfg_.numericsTier, planCache_, results);
    const std::size_t workers = static_cast<std::size_t>(pool_.size());
    std::vector<env::WaveStats> passStats(workers);
    runParallel(workers, [&](std::size_t pass, int worker) {
        obs::Span span("eval.worker", "evaluate", worker);
        passStats[pass] = env::evaluateWave(
            queue, envs_.shard(worker),
            waveScratch_[static_cast<std::size_t>(worker)],
            episodeSlots_);
    });

    // Assemble each genome's EvalDetail from its episode slots, in
    // genome order and accumulating in episode order — the exact order
    // of the serial evaluateDetailed loop, so the mean and totals are
    // bit-identical, not merely equal up to reassociation.
    for (std::size_t g = 0; g < batch.size(); ++g) {
        env::EvalDetail &d = results[g].detail;
        d = env::EvalDetail{};
        d.episodes.reserve(E);
        double total = 0.0;
        for (std::size_t e = 0; e < E; ++e) {
            const env::EpisodeResult &res = episodeSlots_[g * E + e];
            total += res.fitness;
            d.inferences += res.inferences;
            d.macs += res.macs;
            d.maxEpisodeSteps = std::max(d.maxEpisodeSteps, res.steps);
            d.episodes.push_back(res);
        }
        d.fitness = total / static_cast<double>(E);
    }

    lastBatch_.laneCount = envs_.lanesPerWorker();
    uint64_t busyMax = 0;
    uint64_t busySum = 0;
    for (std::size_t w = 0; w < workers; ++w) {
        const env::WaveStats &s = passStats[w];
        lastBatch_.waveSupersteps += s.supersteps;
        lastBatch_.waveLaneSlotSteps += s.laneSlotSteps;
        lastBatch_.waveActiveLaneSteps += s.activeLaneSteps;
        lastBatch_.waveRefills += s.refills;
        lastBatch_.waveGroupedLaneActivations +=
            s.groupedLaneActivations;
        const uint64_t busy = pool_.jobBusyNs(static_cast<int>(w));
        busyMax = std::max(busyMax, busy);
        busySum += busy;
    }
    lastBatch_.workerBusyMaxMs = static_cast<double>(busyMax) * 1e-6;
    lastBatch_.workerBusyMeanMs = static_cast<double>(busySum) * 1e-6 /
                                  static_cast<double>(workers);
}

} // namespace genesys::exec
