/**
 * @file
 * Telemetry subsystem suite: metrics-registry exactness under real
 * pool concurrency, tracer buffering/export, the Telemetry session's
 * artifact files, log-level gating, and — the load-bearing contract —
 * bit-identical golden digests with telemetry on and off under every
 * episode-loop chunking at 1 and 8 threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "core/genesys.hh"
#include "exec/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "obs/tracer.hh"

using namespace genesys;

namespace
{

/** Save/restore one environment variable around a test. */
class EnvVarGuard
{
  public:
    explicit EnvVarGuard(const char *name) : name_(name)
    {
        const char *v = std::getenv(name);
        had_ = v != nullptr;
        if (had_)
            old_ = v;
    }

    ~EnvVarGuard()
    {
        if (had_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

    void set(const std::string &v) { ::setenv(name_, v.c_str(), 1); }
    void unset() { ::unsetenv(name_); }

  private:
    const char *name_;
    bool had_ = false;
    std::string old_;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** A fresh (removed + unique) directory under the test's cwd. */
std::string
freshDir(const std::string &leaf)
{
    const std::string dir = "telemetry-test-out/" + leaf;
    std::filesystem::remove_all(dir);
    return dir;
}

void
fold(uint64_t &h, uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ull;
    }
}

void
fold(uint64_t &h, double v)
{
    fold(h, std::bit_cast<uint64_t>(v));
}

/**
 * Fixed-seed 4-generation CartPole run, digested over the same
 * observable fields as test_golden_digests — with telemetry either
 * fully on (trace + metrics into a throwaway dir) or fully off.
 */
uint64_t
digestRun(int threads, bool telemetry, bool batchEpisodes,
          bool heterogeneousLanes, const std::string &leaf)
{
    core::SystemConfig cfg;
    cfg.envName = "CartPole_v0";
    cfg.maxGenerations = 4;
    cfg.episodesPerEval = 1;
    cfg.seed = 20260808;
    cfg.numThreads = threads;
    cfg.batchEpisodes = batchEpisodes;
    cfg.heterogeneousLanes = heterogeneousLanes;
    cfg.telemetry.trace = telemetry;
    cfg.telemetry.metrics = telemetry;
    cfg.telemetry.dir = freshDir(leaf);
    cfg.tweakNeat = [](neat::NeatConfig &ncfg) {
        ncfg.populationSize = 32;
    };

    core::System sys(cfg);
    const core::RunSummary s = sys.run();

    uint64_t h = 0xcbf29ce484222325ull;
    fold(h, static_cast<uint64_t>(s.solved));
    fold(h, static_cast<uint64_t>(s.generations));
    fold(h, s.bestFitness);
    fold(h, s.totalEvolutionEnergyJ);
    fold(h, s.totalInferenceEnergyJ);
    for (const core::GenerationReport &r : sys.reports()) {
        fold(h, r.algo.bestFitness);
        fold(h, r.algo.meanFitness);
        fold(h, static_cast<uint64_t>(r.algo.evolutionOps));
        fold(h, static_cast<uint64_t>(r.inferenceSteps));
        fold(h, r.macsPerStep);
        fold(h, static_cast<uint64_t>(r.hw.eve.cycles));
        fold(h, static_cast<uint64_t>(r.hw.adam.cycles));
        fold(h, r.hw.evolutionEnergyJ);
        fold(h, r.hw.inferenceEnergyJ);
    }
    return h;
}

} // namespace

// ---------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsTest, CounterExactUnderPoolConcurrency)
{
    obs::MetricsRegistry reg;
    // Hot-path idiom: look the metric up once, share the reference
    // across workers; also hammer the per-item name lookup path.
    obs::Counter &cached = reg.counter("cached");
    constexpr std::size_t kItems = 20000;

    exec::ThreadPool pool(8);
    ASSERT_EQ(pool.size(), 8);
    pool.parallelFor(kItems, [&](std::size_t item, int) {
        cached.add(1);
        reg.counter("looked.up").add(static_cast<long>(item % 3));
    });

    EXPECT_EQ(cached.value(), static_cast<long>(kItems));
    // sum of item % 3 over [0, kItems) with kItems % 3 == 2:
    // full cycles contribute 3 each, the tail contributes 0 + 1.
    const long cycles = static_cast<long>(kItems) / 3;
    EXPECT_EQ(reg.counter("looked.up").value(), cycles * 3 + 1);
}

TEST(MetricsTest, HistogramConcurrentObserveMatchesMerge)
{
    constexpr std::size_t kItems = 8000;
    obs::MetricsRegistry reg;
    obs::HistogramMetric &direct = reg.histogram("direct");

    exec::ThreadPool pool(8);
    pool.parallelFor(kItems, [&](std::size_t item, int) {
        direct.observe(static_cast<double>(item));
    });

    // The composable alternative: per-worker private RunningStats,
    // merged once at the end.
    std::vector<RunningStat> perWorker(8);
    pool.parallelFor(kItems, [&](std::size_t item, int worker) {
        perWorker[static_cast<std::size_t>(worker)].add(
            static_cast<double>(item));
    });
    obs::HistogramMetric &merged = reg.histogram("merged");
    for (const RunningStat &s : perWorker)
        merged.merge(s);

    const RunningStat a = direct.snapshot();
    const RunningStat b = merged.snapshot();
    EXPECT_EQ(a.count(), kItems);
    EXPECT_EQ(b.count(), kItems);
    EXPECT_EQ(a.min(), 0.0);
    EXPECT_EQ(a.max(), static_cast<double>(kItems - 1));
    // Integer-valued samples: the sums are exact in double.
    const double want = static_cast<double>(kItems) *
                        static_cast<double>(kItems - 1) / 2.0;
    EXPECT_EQ(a.sum(), want);
    EXPECT_EQ(b.sum(), want);
    EXPECT_NEAR(a.mean(), b.mean(), 1e-9);
    EXPECT_NEAR(a.stdev(), b.stdev(), 1e-6);
}

TEST(MetricsTest, KindCollisionPanics)
{
    obs::MetricsRegistry reg;
    reg.counter("x");
    EXPECT_THROW(reg.gauge("x"), std::logic_error);
    EXPECT_THROW(reg.histogram("x"), std::logic_error);
    // Same kind re-lookup returns the same object.
    EXPECT_EQ(&reg.counter("x"), &reg.counter("x"));
}

TEST(MetricsTest, JsonAndPrometheusExposition)
{
    obs::MetricsRegistry reg;
    reg.counter("eval.genomes").add(5);
    reg.gauge("pool.barrier_idle_fraction").set(0.25);
    reg.histogram("eval.episode_steps").observe(10.0);

    std::ostringstream jsonl;
    reg.writeJsonLine(jsonl, 3);
    const std::string line = jsonl.str();
    EXPECT_NE(line.find("\"generation\":3"), std::string::npos);
    EXPECT_NE(line.find("\"eval.genomes\":5"), std::string::npos);
    EXPECT_NE(line.find("pool.barrier_idle_fraction"),
              std::string::npos);
    EXPECT_NE(line.find("eval.episode_steps"), std::string::npos);

    std::ostringstream prom;
    reg.writePrometheus(prom);
    const std::string text = prom.str();
    EXPECT_NE(text.find("genesys_eval_genomes 5"), std::string::npos);
    EXPECT_NE(text.find("genesys_pool_barrier_idle_fraction"),
              std::string::npos);
    EXPECT_NE(text.find("genesys_eval_episode_steps_count"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Tracer

TEST(TracerTest, SpansRecordAndExportChromeJson)
{
    obs::Tracer tracer;
    obs::Tracer::install(&tracer);
    tracer.nameCurrentThread("test-main");
    {
        obs::Span outer("outer", "phase", 42);
        obs::Span inner("inner", "phase");
        obs::traceInstant("tick", "wave");
    }
    obs::Tracer::install(nullptr);

    EXPECT_EQ(tracer.eventCount(), 3u);
    EXPECT_EQ(tracer.droppedEvents(), 0u);

    std::ostringstream os;
    tracer.writeChromeTrace(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"outer\""), std::string::npos);
    EXPECT_NE(json.find("\"inner\""), std::string::npos);
    EXPECT_NE(json.find("\"tick\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("test-main"), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"v\":42}"), std::string::npos);
}

TEST(TracerTest, BufferCapCountsDrops)
{
    obs::Tracer tracer(4);
    obs::Tracer::install(&tracer);
    for (int i = 0; i < 10; ++i)
        obs::traceInstant("e", "t");
    obs::Tracer::install(nullptr);
    EXPECT_EQ(tracer.eventCount(), 4u);
    EXPECT_EQ(tracer.droppedEvents(), 6u);
}

TEST(TracerTest, NullSinkIsSafe)
{
    ASSERT_EQ(obs::Tracer::active(), nullptr);
    obs::Span span("unrecorded", "phase", 1);
    obs::traceInstant("unrecorded", "phase");
    obs::nameThisThread("unrecorded");
}

// ---------------------------------------------------------------------
// Telemetry session + System integration

TEST(TelemetryTest, SessionWritesAllArtifacts)
{
    const std::string dir = freshDir("artifacts");
    {
        core::SystemConfig cfg;
        cfg.envName = "CartPole_v0";
        cfg.maxGenerations = 3;
        cfg.seed = 11;
        cfg.numThreads = 2;
        cfg.telemetry.trace = true;
        cfg.telemetry.metrics = true;
        cfg.telemetry.dir = dir;
        cfg.tweakNeat = [](neat::NeatConfig &ncfg) {
            ncfg.populationSize = 32;
            // Keep the run unsolved so every generation reproduces
            // (reproduction_trace.jsonl gets lines).
            ncfg.fitnessThreshold = 1e9;
        };
        core::System sys(cfg);
        EXPECT_TRUE(sys.telemetry().installed());
        sys.run();
        // Artifacts flush when the System (and its session) dies.
    }

    const std::string trace = readFile(dir + "/trace.json");
    ASSERT_FALSE(trace.empty());
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    // Every instrumented layer shows up on the timeline: the System
    // phases, the population's serial barrier phases, the engine
    // batch, the pool drains and the plan compiles.
    for (const char *name :
         {"\"generation\"", "\"evaluate\"", "\"reproduce\"",
          "\"speciate\"", "\"report\"", "\"eval.batch\"",
          "\"pool.drain\"", "\"plan.compile\""})
        EXPECT_NE(trace.find(name), std::string::npos)
            << "missing span " << name;
    EXPECT_NE(trace.find("thread_name"), std::string::npos);
    EXPECT_NE(trace.find("pool-worker"), std::string::npos);

    const std::string metrics = readFile(dir + "/metrics.jsonl");
    ASSERT_FALSE(metrics.empty());
    for (const char *key :
         {"\"generation\"", "eval.genomes", "eval.inferences",
          "plan.compiles", "phase.evaluate_seconds",
          "phase.wall_seconds", "pool.barrier_idle_fraction",
          "fitness.best", "eval.episode_steps"})
        EXPECT_NE(metrics.find(key), std::string::npos)
            << "missing metric " << key;
    // One snapshot line per generation.
    EXPECT_EQ(std::count(metrics.begin(), metrics.end(), '\n'), 3);

    const std::string prom = readFile(dir + "/metrics.prom");
    EXPECT_NE(prom.find("genesys_eval_genomes"), std::string::npos);
    EXPECT_NE(prom.find("genesys_generations 3"), std::string::npos);

    const std::string repro =
        readFile(dir + "/reproduction_trace.jsonl");
    ASSERT_FALSE(repro.empty());
    for (const char *key : {"\"generation\"", "\"child\"",
                            "\"parent1\"", "\"ops\"", "\"crossover\""})
        EXPECT_NE(repro.find(key), std::string::npos)
            << "missing trace key " << key;
}

TEST(TelemetryTest, SecondEnabledSessionDegrades)
{
    obs::TelemetryConfig a;
    a.metrics = true;
    a.dir = freshDir("session-a");
    obs::Telemetry first(a);
    ASSERT_TRUE(first.installed());

    obs::TelemetryConfig b;
    b.metrics = true;
    b.dir = freshDir("session-b");
    obs::Telemetry second(b);
    EXPECT_FALSE(second.installed());
    EXPECT_EQ(obs::MetricsRegistry::active(), first.metrics());
}

TEST(TelemetryTest, DisabledSessionInstallsNothing)
{
    obs::Telemetry session(obs::TelemetryConfig{});
    EXPECT_FALSE(session.installed());
    EXPECT_EQ(obs::Tracer::active(), nullptr);
    EXPECT_EQ(obs::MetricsRegistry::active(), nullptr);
}

TEST(TelemetryTest, ApplyTelemetryFromEnv)
{
    EnvVarGuard trace("GENESYS_TRACE");
    EnvVarGuard metrics("GENESYS_METRICS");
    EnvVarGuard dir("GENESYS_TELEMETRY_DIR");

    obs::TelemetryConfig cfg;
    trace.unset();
    metrics.unset();
    dir.unset();
    obs::applyTelemetryFromEnv(cfg);
    EXPECT_FALSE(cfg.trace);
    EXPECT_FALSE(cfg.metrics);
    EXPECT_EQ(cfg.dir, "genesys-telemetry");

    trace.set("1");
    metrics.set("0");
    dir.set("somewhere/else");
    cfg.metrics = true;
    obs::applyTelemetryFromEnv(cfg);
    EXPECT_TRUE(cfg.trace);
    EXPECT_FALSE(cfg.metrics);
    EXPECT_EQ(cfg.dir, "somewhere/else");

    trace.set("yes");
    EXPECT_THROW(obs::applyTelemetryFromEnv(cfg),
                 std::runtime_error);
}

/**
 * The headline contract: telemetry on and off produce bit-identical
 * runs under every chunking of the episode loop, at 1 and 8 threads.
 */
TEST(TelemetryTest, DigestsIdenticalTelemetryOnOffAllChunkings)
{
    struct Chunking
    {
        const char *name;
        bool batchEpisodes;
        bool heterogeneousLanes;
    };
    for (const Chunking &c : {Chunking{"serial", false, false},
                              Chunking{"per-genome", true, false},
                              Chunking{"waves", true, true}}) {
        const std::string m = c.name;
        auto digest = [&](int threads, bool telemetry,
                          const std::string &leaf) {
            return digestRun(threads, telemetry, c.batchEpisodes,
                             c.heterogeneousLanes, m + leaf);
        };
        const uint64_t off1 = digest(1, false, "-off1");
        const uint64_t on1 = digest(1, true, "-on1");
        const uint64_t off8 = digest(8, false, "-off8");
        const uint64_t on8 = digest(8, true, "-on8");
        EXPECT_EQ(on1, off1) << "telemetry changed results: " << m;
        EXPECT_EQ(off8, off1) << "thread count changed results: " << m;
        EXPECT_EQ(on8, off1)
            << "telemetry at 8 threads changed results: " << m;
    }
}

TEST(TelemetryTest, PhaseBreakdownIsSane)
{
    core::SystemConfig cfg;
    cfg.envName = "CartPole_v0";
    cfg.maxGenerations = 2;
    cfg.seed = 3;
    cfg.numThreads = 4;
    cfg.tweakNeat = [](neat::NeatConfig &ncfg) {
        ncfg.populationSize = 32;
        ncfg.fitnessThreshold = 1e9;
    };
    core::System sys(cfg);
    sys.run();
    ASSERT_EQ(sys.reports().size(), 2u);
    for (const core::GenerationReport &r : sys.reports()) {
        EXPECT_GT(r.phases.wallSeconds, 0.0);
        EXPECT_GT(r.phases.evaluateSeconds, 0.0);
        // The evaluate interval nests inside the wall interval.
        EXPECT_LE(r.phases.evaluateSeconds, r.phases.wallSeconds);
        EXPECT_GE(r.phases.reproduceSeconds, 0.0);
        EXPECT_GE(r.phases.speciateSeconds, 0.0);
        EXPECT_GE(r.phases.reportSeconds, 0.0);
        EXPECT_GE(r.phases.barrierIdleFraction, 0.0);
        EXPECT_LE(r.phases.barrierIdleFraction, 1.0);
        EXPECT_GE(r.phases.planCompileCpuSeconds, 0.0);
    }
    // Plans compiled at least once across the run.
    EXPECT_GT(sys.evalEngine().planCache().compileNs(), 0);
}

// ---------------------------------------------------------------------
// Log levels

TEST(LoggingTest, ParseLogLevel)
{
    EXPECT_EQ(parseLogLevel("quiet"), LogLevel::Quiet);
    EXPECT_EQ(parseLogLevel("warn"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("info"), LogLevel::Info);
    EXPECT_THROW(parseLogLevel("loud"), std::runtime_error);
}

TEST(LoggingTest, LevelGatesChatterButNeverErrors)
{
    const LogLevel saved = logLevel();

    setLogLevel(LogLevel::Quiet);
    testing::internal::CaptureStderr();
    inform("hidden-info");
    warn("hidden-warn");
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

    setLogLevel(LogLevel::Warn);
    testing::internal::CaptureStderr();
    inform("hidden-info");
    warn("visible-warn");
    {
        const std::string out = testing::internal::GetCapturedStderr();
        EXPECT_EQ(out.find("hidden-info"), std::string::npos);
        EXPECT_NE(out.find("visible-warn"), std::string::npos);
    }

    setLogLevel(LogLevel::Info);
    testing::internal::CaptureStderr();
    inform("visible-info");
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "visible-info"),
              std::string::npos);

    // fatal() prints regardless of level.
    setLogLevel(LogLevel::Quiet);
    testing::internal::CaptureStderr();
    EXPECT_THROW(fatal("always-visible"), std::runtime_error);
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "always-visible"),
              std::string::npos);

    setLogLevel(saved);
}
