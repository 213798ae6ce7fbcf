// Span store of the traced pass: spans live in memory while the pass
// runs and are aggregated and written out once it ends.
#include <fstream>

#include "bench.hpp"
#include "fpm/common/error.hpp"

namespace perfbench {

namespace {

std::int64_t to_ns(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

} // namespace

std::int32_t Tracer::open(const char* name, std::int32_t parent,
                          std::uint32_t request) {
    spans_.push_back(SpanRecord{name, to_ns(Clock::now()), 0, parent, request});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = to_ns(Clock::now());
}

std::int32_t Tracer::add(const char* name, Clock::time_point start,
                         Clock::time_point end, std::int32_t parent,
                         std::uint32_t request) {
    spans_.push_back(
        SpanRecord{name, to_ns(start), to_ns(end), parent, request});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const auto& span : spans_) {
        if (span.parent >= 0) {
            child_ns[static_cast<std::size_t>(span.parent)] +=
                static_cast<double>(span.end_ns - span.start_ns);
        }
    }
    std::map<std::string, Totals> totals;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const double duration =
            static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
        Totals& entry = totals[spans_[i].name];
        ++entry.count;
        entry.total_ns += duration;
        entry.self_ns += duration - child_ns[i];
    }
    return totals;
}

void Tracer::write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    FPM_CHECK(out.good(), "cannot write " + path);
    const std::int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& span = spans_[i];
        out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << span.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << static_cast<double>(span.start_ns - epoch) / 1e3
            << ",\"dur\":"
            << static_cast<double>(span.end_ns - span.start_ns) / 1e3
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
            << ",\"request\":" << span.request << "}}";
    }
    out << "\n]}\n";
}

} // namespace perfbench
