#include "exec/eval_engine.hh"

#include <algorithm>
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

/** Default lane width of a worker's heterogeneous wave shard. */
constexpr int kDefaultWaveLanes = 8;

/**
 * The single multi-genome chunking predicate — shard sizing
 * (resolveShardLanes) and chunk sizing (evaluateWaves) must agree, so
 * both read this, as does usesHeterogeneousWaves.
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
 * evaluateWave call: `waveLanes` when chunks span many genomes, one
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

void
EvalEngine::evaluateWaves(const std::vector<neat::GenomeHandle> &batch,
                          const neat::NeatConfig &cfg,
                          const SeedFn &seedFor,
                          std::vector<GenomeEvalResult> &results)
{
    if (batch.empty())
        return;

    // Phase 1 — compile. Plans must exist before lanes can be packed
    // (a wave dispatches per-lane plans), so the compile fan-out runs
    // as its own parallel pass. The cache guarantees one compile per
    // genome and elite carry-over; each compiled plan is immutable
    // and shared read-only by all of its episodes and by workload
    // accounting.
    runParallel(batch.size(), [&](std::size_t i, int) {
        const neat::GenomeHandle &h = batch[i];
        results[i].genomeKey = h.key;
        results[i].plan = planCache_.acquire(h.key, *h.genome, cfg,
                                             cfg_.numericsTier);
    });

    // Phase 2 — rolling waves. The batch splits into contiguous
    // chunks claimed by the workers; each chunk's episodes run
    // through one rolling wave over the claiming worker's private
    // lane shard (env::evaluateWave), refilling freed lanes from the
    // chunk's pending queue. Each chunk touches only its own results
    // slots and its worker's shard, so the episode loop is lock-free.
    // Every (genome, episode) outcome is a pure function of (plan,
    // seed), so the chunking never affects results, only which shard
    // computes them.
    //
    // The mode decides only the chunk size. Without multi-genome
    // waves a chunk is one genome: its E episodes fill the shard's E
    // lanes (or run one after another on a single lane when batching
    // is off). With them, the chunk count balances two pressures:
    // more chunks even out the tail when episode lengths cluster
    // unevenly across the batch (a worker stuck with the long-episode
    // chunk would otherwise gate the generation), while a chunk needs
    // a refill queue several waves deep to keep lane occupancy high
    // (the drain tail costs about one wave per chunk). So: one chunk
    // per worker by default, split finer — up to 4 per worker — only
    // while every chunk keeps at least ~8 waves of items.
    std::size_t chunks = batch.size();
    if (wavesActive(cfg_)) {
        const std::size_t pool = static_cast<std::size_t>(pool_.size());
        const std::size_t minChunk =
            8 * static_cast<std::size_t>(cfg_.waveLanes);
        chunks = pool;
        if (batch.size() / minChunk > chunks)
            chunks = std::min(batch.size() / minChunk, pool * 4);
        chunks = std::min(chunks, batch.size());
    }
    const std::size_t per = (batch.size() + chunks - 1) / chunks;
    const int episodes = cfg_.episodes;
    std::vector<env::WaveStats> chunkStats(chunks);
    runParallel(chunks, [&](std::size_t c, int worker) {
        const std::size_t lo = c * per;
        const std::size_t hi =
            std::min(batch.size(), lo + per);
        if (lo >= hi)
            return;
        obs::Span span("eval.wave_chunk", "evaluate",
                       static_cast<int64_t>(hi - lo));
        // Items ordered by (genome, episode): a genome's episodes are
        // adjacent, so at episodes > 1 same-plan lanes pack next to
        // each other and group into one batched dispatch.
        std::vector<env::WaveItem> items;
        items.reserve((hi - lo) * static_cast<std::size_t>(episodes));
        for (std::size_t i = lo; i < hi; ++i)
            for (int e = 0; e < episodes; ++e)
                items.push_back({results[i].plan.get(),
                                 seedFor(batch[i].key, e)});

        env::WaveResult wave = env::evaluateWave(
            items, envs_.shard(worker),
            waveScratch_[static_cast<std::size_t>(worker)]);
        chunkStats[c] = wave.stats;

        // Assemble each genome's EvalDetail from its episode slice,
        // accumulating in episode order — the exact order of the
        // serial evaluateDetailed loop, so the mean and totals are
        // bit-identical, not merely equal up to reassociation.
        std::size_t k = 0;
        for (std::size_t i = lo; i < hi; ++i) {
            env::EvalDetail &d = results[i].detail;
            d = env::EvalDetail{};
            d.episodes.reserve(static_cast<std::size_t>(episodes));
            double total = 0.0;
            for (int e = 0; e < episodes; ++e, ++k) {
                env::EpisodeResult &res = wave.episodes[k];
                total += res.fitness;
                d.inferences += res.inferences;
                d.macs += res.macs;
                d.maxEpisodeSteps =
                    std::max(d.maxEpisodeSteps, res.steps);
                d.episodes.push_back(std::move(res));
            }
            d.fitness = total / static_cast<double>(episodes);
        }
    });

    lastBatch_.laneCount = envs_.lanesPerWorker();
    for (const env::WaveStats &s : chunkStats) {
        lastBatch_.waveSupersteps += s.supersteps;
        lastBatch_.waveLaneSlotSteps += s.laneSlotSteps;
        lastBatch_.waveActiveLaneSteps += s.activeLaneSteps;
        lastBatch_.waveRefills += s.refills;
        lastBatch_.waveGroupedLaneActivations +=
            s.groupedLaneActivations;
    }
}

} // namespace genesys::exec
