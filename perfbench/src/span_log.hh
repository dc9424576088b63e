/**
 * @file
 * In-memory span log for the traced run. Spans are opened and closed
 * on the benchmark's own thread around its calls into each layer;
 * nesting follows the open-span stack, so a span's self time is its
 * duration minus the time its direct children cover. Nothing is
 * written until writeChromeTrace() at the end of the run.
 */

#ifndef PERFBENCH_SPAN_LOG_HH
#define PERFBENCH_SPAN_LOG_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Aggregate of every closed span sharing one name. */
struct SpanTotals
{
    long count = 0;
    int64_t durNs = 0;
    int64_t selfNs = 0;
};

class SpanLog
{
  public:
    SpanLog();

    /** Open a span under the innermost open one; returns its id. */
    int begin(const char *name, int generation);
    /** Close span `id`, which must be the innermost open span. */
    void end(int id);

    /** Per-name totals over every closed span. */
    std::map<std::string, SpanTotals> totals() const;

    /** Chrome trace-event JSON (one complete event per span). */
    void writeChromeTrace(const std::string &path) const;

  private:
    using Clock = std::chrono::steady_clock;

    struct Record
    {
        const char *name = "";
        int parent = -1;
        int generation = 0;
        int64_t beginNs = 0;
        int64_t endNs = -1;
        int64_t childNs = 0;
    };

    int64_t nowNs() const;

    Clock::time_point origin_;
    std::vector<Record> records_;
    std::vector<int> open_;
};

/** RAII span: begin on construction, end on destruction. */
class Span
{
  public:
    Span(SpanLog &log, const char *name, int generation)
        : log_(log), id_(log.begin(name, generation))
    {
    }
    ~Span() { log_.end(id_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanLog &log_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_LOG_HH
