#include "span_log.hh"

#include <fstream>
#include <stdexcept>

namespace perfbench
{

SpanLog::SpanLog() : origin_(Clock::now()) {}

int64_t
SpanLog::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int
SpanLog::begin(const char *name, int generation)
{
    Record r;
    r.name = name;
    r.parent = open_.empty() ? -1 : open_.back();
    r.generation = generation;
    r.beginNs = nowNs();
    records_.push_back(r);
    const int id = static_cast<int>(records_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
SpanLog::end(int id)
{
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("span closed out of order");
    open_.pop_back();
    Record &r = records_[static_cast<size_t>(id)];
    r.endNs = nowNs();
    if (r.parent >= 0)
        records_[static_cast<size_t>(r.parent)].childNs +=
            r.endNs - r.beginNs;
}

std::map<std::string, SpanTotals>
SpanLog::totals() const
{
    std::map<std::string, SpanTotals> out;
    for (const Record &r : records_) {
        if (r.endNs < 0)
            continue;
        SpanTotals &t = out[r.name];
        ++t.count;
        t.durNs += r.endNs - r.beginNs;
        t.selfNs += r.endNs - r.beginNs - r.childNs;
    }
    return out;
}

void
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write span trace " + path);
    out << std::fixed;
    out.precision(3);
    out << "{\"traceEvents\":[\n";
    bool first = true;
    for (size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        if (r.endNs < 0)
            continue;
        out << (first ? "" : ",\n") << "{\"name\":\"" << r.name
            << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
            << ",\"ts\":" << static_cast<double>(r.beginNs) * 1e-3
            << ",\"dur\":"
            << static_cast<double>(r.endNs - r.beginNs) * 1e-3
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
            << ",\"gen\":" << r.generation << ",\"self_us\":"
            << static_cast<double>(r.endNs - r.beginNs - r.childNs) *
                   1e-3
            << "}}";
        first = false;
    }
    out << "\n]}\n";
    if (!out)
        throw std::runtime_error("short write to span trace " + path);
}

} // namespace perfbench
