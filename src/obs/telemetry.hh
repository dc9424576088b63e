/**
 * @file
 * Telemetry session: owns the run's Tracer and MetricsRegistry,
 * installs them as the process-wide active sinks, and writes every
 * artifact into one run directory:
 *
 *     <dir>/trace.json                Chrome trace-event JSON
 *                                     (chrome://tracing, Perfetto)
 *     <dir>/metrics.jsonl             one metrics snapshot per
 *                                     generation
 *     <dir>/metrics.prom              end-of-run Prometheus text dump
 *     <dir>/reproduction_trace.jsonl  the paper's workload trace
 *                                     (Section VI-A): one line per
 *                                     child genome — generation,
 *                                     child/parent ids, op class
 *                                     counts, stream lengths
 *
 * Disabled (the default) nothing is installed and every
 * instrumentation site stays a null-pointer branch. A run is
 * configured through core::SystemConfig::telemetry alone.
 *
 * One session at a time: if another session is already installed, a
 * new enabled session degrades to disabled with a warning rather
 * than hijacking the sinks.
 */

#ifndef GENESYS_OBS_TELEMETRY_HH
#define GENESYS_OBS_TELEMETRY_HH

#include <fstream>
#include <memory>
#include <string>

#include "obs/metrics.hh"
#include "obs/tracer.hh"

namespace genesys::neat
{
struct EvolutionTrace;
}

namespace genesys::obs
{

/** What to record and where to put it. */
struct TelemetryConfig
{
    /** Record spans and write trace.json at session end. */
    bool trace = false;
    /** Record metrics; write metrics.jsonl per generation + .prom. */
    bool metrics = false;
    /** Run directory for every artifact (created if missing). */
    std::string dir = "genesys-telemetry";

    bool enabled() const { return trace || metrics; }
};

/**
 * The run-scoped telemetry session (core::System builds one from
 * SystemConfig::telemetry); destruction (or an explicit finish())
 * flushes trace.json and metrics.prom and uninstalls the
 * sinks. finish() must run while no other thread is recording — in
 * System the engine (and its worker pool) is destroyed first.
 */
class Telemetry
{
  public:
    explicit Telemetry(TelemetryConfig cfg);
    ~Telemetry();

    Telemetry(const Telemetry &) = delete;
    Telemetry &operator=(const Telemetry &) = delete;

    /** Did this session install its sinks (enabled and unclaimed)? */
    bool installed() const { return installed_; }
    const TelemetryConfig &config() const { return cfg_; }

    /** This session's tracer (null when tracing is off). */
    Tracer *tracer() { return tracer_.get(); }
    /** This session's registry (null when metrics are off). */
    MetricsRegistry *metrics() { return metrics_.get(); }

    /**
     * Generation boundary: append one metrics snapshot line to
     * metrics.jsonl (no-op when metrics are off).
     */
    void endGeneration(long generation);

    /**
     * Bridge the in-memory reproduction trace to the run directory:
     * append one JSONL record per child genome to
     * reproduction_trace.jsonl (no-op when the session is disabled).
     */
    void writeEvolutionTrace(const neat::EvolutionTrace &trace);

    /**
     * Flush trace.json and metrics.prom and uninstall the sinks.
     * Idempotent; called by the destructor if not called earlier.
     */
    void finish();

    std::string traceFilePath() const;
    std::string metricsFilePath() const;
    std::string prometheusFilePath() const;
    std::string reproductionTraceFilePath() const;

  private:
    TelemetryConfig cfg_;
    bool installed_ = false;
    bool finished_ = false;
    std::unique_ptr<Tracer> tracer_;
    std::unique_ptr<MetricsRegistry> metrics_;
    std::ofstream metricsOut_;
    std::ofstream reproOut_;
};

} // namespace genesys::obs

#endif // GENESYS_OBS_TELEMETRY_HH
