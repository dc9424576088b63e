#include "obs/telemetry.hh"

#include <filesystem>

#include "common/logging.hh"
#include "neat/trace.hh"

namespace genesys::obs
{

Telemetry::Telemetry(TelemetryConfig cfg) : cfg_(std::move(cfg))
{
    if (!cfg_.enabled())
        return;
    if (Tracer::active() != nullptr ||
        MetricsRegistry::active() != nullptr) {
        warn("another telemetry session is already installed; this "
             "one records nothing");
        return;
    }

    std::error_code ec;
    std::filesystem::create_directories(cfg_.dir, ec);
    if (ec) {
        warn("cannot create telemetry directory \"" + cfg_.dir +
             "\" (" + ec.message() + "); telemetry disabled");
        return;
    }

    if (cfg_.trace) {
        tracer_ = std::make_unique<Tracer>();
        Tracer::install(tracer_.get());
        tracer_->nameCurrentThread("main");
    }
    if (cfg_.metrics) {
        metrics_ = std::make_unique<MetricsRegistry>();
        MetricsRegistry::install(metrics_.get());
        metricsOut_.open(metricsFilePath(), std::ios::trunc);
        if (!metricsOut_)
            warn("cannot open " + metricsFilePath() + " for writing");
    }
    reproOut_.open(reproductionTraceFilePath(), std::ios::trunc);
    if (!reproOut_)
        warn("cannot open " + reproductionTraceFilePath() +
             " for writing");
    installed_ = true;
}

Telemetry::~Telemetry() { finish(); }

std::string
Telemetry::traceFilePath() const
{
    return cfg_.dir + "/trace.json";
}

std::string
Telemetry::metricsFilePath() const
{
    return cfg_.dir + "/metrics.jsonl";
}

std::string
Telemetry::prometheusFilePath() const
{
    return cfg_.dir + "/metrics.prom";
}

std::string
Telemetry::reproductionTraceFilePath() const
{
    return cfg_.dir + "/reproduction_trace.jsonl";
}

void
Telemetry::endGeneration(long generation)
{
    if (!installed_ || !metrics_ || !metricsOut_)
        return;
    metrics_->writeJsonLine(metricsOut_, generation);
    metricsOut_.flush();
}

void
Telemetry::writeEvolutionTrace(const neat::EvolutionTrace &trace)
{
    if (!installed_ || !reproOut_)
        return;
    // The paper's workload-trace line: "the generation, the child
    // gene and genome id, the type of operation" (Section VI-A) —
    // here per child genome, with the op classes broken out the way
    // neat::MutationCounts tallies them.
    for (const neat::ChildRecord &c : trace.children) {
        reproOut_ << "{\"generation\":" << trace.generation
                  << ",\"child\":" << c.childKey
                  << ",\"parent1\":" << c.parent1Key
                  << ",\"parent2\":" << c.parent2Key << ",\"elite\":"
                  << (c.isElite ? "true" : "false")
                  << ",\"ops\":{\"crossover\":" << c.ops.crossoverOps
                  << ",\"clone\":" << c.ops.cloneOps
                  << ",\"perturb\":" << c.ops.perturbOps
                  << ",\"add\":" << c.ops.addOps
                  << ",\"delete\":" << c.ops.deleteOps
                  << "},\"parent1Genes\":" << c.parent1Genes
                  << ",\"parent2Genes\":" << c.parent2Genes
                  << ",\"alignedStreamLen\":" << c.alignedStreamLen
                  << ",\"childNodeGenes\":" << c.childNodeGenes
                  << ",\"childConnGenes\":" << c.childConnGenes
                  << "}\n";
    }
    reproOut_.flush();
}

void
Telemetry::finish()
{
    if (finished_)
        return;
    finished_ = true;
    if (!installed_)
        return;

    // Uninstall first: anything recorded after this point no-ops, so
    // the buffer walk below races with nothing (callers additionally
    // guarantee worker quiescence — System destroys the engine, and
    // with it the worker pool, before the session).
    if (tracer_) {
        Tracer::install(nullptr);
        std::ofstream out(traceFilePath(), std::ios::trunc);
        if (out) {
            tracer_->writeChromeTrace(out);
            if (tracer_->droppedEvents() > 0)
                warn("trace buffer overflow: " +
                     std::to_string(tracer_->droppedEvents()) +
                     " events dropped");
        } else {
            warn("cannot open " + traceFilePath() + " for writing");
        }
    }
    if (metrics_) {
        MetricsRegistry::install(nullptr);
        std::ofstream out(prometheusFilePath(), std::ios::trunc);
        if (out)
            metrics_->writePrometheus(out);
        else
            warn("cannot open " + prometheusFilePath() +
                 " for writing");
    }
    inform("telemetry written to " + cfg_.dir + "/");
}

} // namespace genesys::obs
