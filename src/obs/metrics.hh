/**
 * @file
 * Metrics registry: named counters, gauges and histograms with
 * per-generation JSONL snapshots and an end-of-run Prometheus-style
 * text dump. The registry is the durable, queryable side of the
 * telemetry subsystem (obs::Tracer is the timeline side): the
 * evaluation engine folds its BatchStats occupancy counters and the
 * plan slots' compile/hit/carry-over counters in here, and
 * core::System adds the per-generation phase wall-clock gauges.
 *
 * Concurrency: counters are lock-free atomics (exact under any
 * interleaving), gauges are atomic doubles, histograms take a
 * per-metric mutex around a common::RunningStat (observe() is cheap
 * and off the per-step hot path; per-worker RunningStats can be
 * merged in instead). Name lookup takes the registry mutex — hot
 * paths should look a metric up once and keep the reference, which
 * stays valid for the registry's lifetime.
 *
 * Like the tracer, the default is a null sink: MetricsRegistry::
 * active() is null unless a telemetry session installed one, and all
 * instrumentation sites branch on that pointer.
 */

#ifndef GENESYS_OBS_METRICS_HH
#define GENESYS_OBS_METRICS_HH

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace genesys::obs
{

/** Monotonic counter; add() is lock-free and exact. */
class Counter
{
  public:
    void
    add(long d = 1)
    {
        v_.fetch_add(d, std::memory_order_relaxed);
    }

    long
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

    /**
     * Snapshot restore: overwrite the running value. Only the
     * checkpoint/resume path calls this (a resumed run's counters
     * continue from the saved run's totals instead of restarting at
     * zero); everything else treats counters as monotonic.
     */
    void
    restore(long v)
    {
        v_.store(v, std::memory_order_relaxed);
    }

  private:
    std::atomic<long> v_{0};
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void
    set(double v)
    {
        v_.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> v_{0.0};
};

/**
 * Distribution metric: a common::RunningStat (count/mean/stdev/
 * min/max/sum) behind a per-metric mutex. Workers either observe()
 * directly (contended but exact) or accumulate a private RunningStat
 * and merge() it in once per batch — both compose correctly.
 */
class HistogramMetric
{
  public:
    void
    observe(double x)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stat_.add(x);
    }

    void
    merge(const RunningStat &s)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stat_.merge(s);
    }

    RunningStat
    snapshot() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return stat_;
    }

  private:
    mutable std::mutex mutex_;
    RunningStat stat_;
};

/**
 * The named-metric registry. Metric objects are created on first
 * lookup and live as long as the registry; a name identifies exactly
 * one kind (registering "x" as both a counter and a gauge is a
 * programming error and panics).
 */
class MetricsRegistry
{
  public:
    /** The installed registry, or null (the zero-cost default). */
    static MetricsRegistry *
    active()
    {
        return active_.load(std::memory_order_acquire);
    }

    /** Install `m` as the global registry (null uninstalls). */
    static void install(MetricsRegistry *m);

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    HistogramMetric &histogram(const std::string &name);

    /**
     * One JSON object per call (a JSONL line when written per
     * generation): {"generation":N,"counters":{...},"gauges":{...},
     * "histograms":{name:{count,mean,stdev,min,max,sum}}}. Counter
     * values are cumulative since registry construction.
     */
    void writeJsonLine(std::ostream &os, long generation) const;

    /**
     * Prometheus text exposition: names are sanitized (non
     * [a-zA-Z0-9_:] becomes '_') and prefixed "genesys_"; counters
     * and gauges map directly, histograms expand to _count/_sum/
     * _min/_max/_mean gauges.
     */
    void writePrometheus(std::ostream &os) const;

    /** All registered metric names (sorted, all kinds). */
    std::vector<std::string> names() const;

    /**
     * All counters as (name, value) pairs, sorted by name — the
     * snapshot side of checkpoint/resume counter continuity. Gauges
     * and histograms are instantaneous / per-run views and are not
     * part of a snapshot.
     */
    std::vector<std::pair<std::string, long>> counterSnapshot() const;

    /**
     * Restore counters captured by counterSnapshot() into this
     * registry (creating any that don't exist yet). A resumed run's
     * cumulative counters continue from the saved totals.
     */
    void
    restoreCounters(const std::vector<std::pair<std::string, long>> &vals);

  private:
    enum class Kind { Counter, Gauge, Histogram };
    void checkKind(const std::string &name, Kind kind);

    // genesys-lint: allow(global-state, see the definition in metrics.cc)
    static std::atomic<MetricsRegistry *> active_;

    mutable std::mutex mutex_;
    std::map<std::string, Kind> kinds_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

} // namespace genesys::obs

#endif // GENESYS_OBS_METRICS_HH
