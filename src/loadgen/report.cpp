#include "fpm/loadgen/report.hpp"

#include <cinttypes>
#include <cstdio>

namespace fpm::loadgen {

namespace {

/// Shortest-exact decimal form of a double (round-trips bit-for-bit).
std::string number(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

std::string number(std::uint64_t value) {
    return std::to_string(value);
}

std::string hex64(std::uint64_t value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%016" PRIx64, value);
    return buffer;
}

std::string latency_json(const LatencyReport& latency) {
    std::string out = "{";
    out += "\"count\": " + number(latency.count);
    out += ", \"mean_us\": " + number(latency.mean_us);
    out += ", \"min_us\": " + number(latency.min_us);
    out += ", \"max_us\": " + number(latency.max_us);
    out += ", \"p50_us\": " + number(latency.p50_us);
    out += ", \"p95_us\": " + number(latency.p95_us);
    out += ", \"p99_us\": " + number(latency.p99_us);
    out += ", \"p999_us\": " + number(latency.p999_us);
    out += "}";
    return out;
}

} // namespace

LatencyReport LatencyReport::from(const obs::HistogramSnapshot& s) {
    LatencyReport latency;
    latency.count = s.count;
    latency.mean_us = s.mean() * 1e6;
    latency.min_us = s.min * 1e6;
    latency.max_us = s.max * 1e6;
    latency.p50_us = s.p50 * 1e6;
    latency.p95_us = s.p95 * 1e6;
    latency.p99_us = s.p99 * 1e6;
    latency.p999_us = s.p999 * 1e6;
    return latency;
}

std::string Report::to_json() const {
    std::string out = "{\n";
    out += "  \"schema\": \"fpmpart-loadgen-v1\",\n";
    out += "  \"mode\": \"" + mode + "\",\n";
    out += "  \"arrival\": \"" + arrival + "\",\n";
    out += "  \"seed\": " + number(seed) + ",\n";
    out += "  \"connections\": " + number(connections) + ",\n";
    out += "  \"max_outstanding\": " + number(max_outstanding) + ",\n";
    out += "  \"think_time_seconds\": " + number(think_time_seconds) + ",\n";
    out += "  \"duration_seconds\": " + number(duration_seconds) + ",\n";
    out += "  \"target_rps\": " + number(target_rps) + ",\n";
    out += "  \"achieved_rps\": " + number(achieved_rps) + ",\n";
    out += "  \"scheduled\": " + number(scheduled) + ",\n";
    out += "  \"sent\": " + number(sent) + ",\n";
    out += "  \"completed\": " + number(completed) + ",\n";
    out += "  \"errors\": " + number(errors) + ",\n";
    out += "  \"degraded\": " + number(degraded) + ",\n";
    out += "  \"dropped\": " + number(dropped) + ",\n";
    out += "  \"failovers\": " + number(failovers) + ",\n";
    out += "  \"stream_fingerprint\": \"" + hex64(stream_fingerprint) +
           "\",\n";
    out += "  \"latency\": " + latency_json(latency) + ",\n";
    out += "  \"verbs\": {\n";
    for (std::size_t v = 0; v < kVerbCount; ++v) {
        const VerbReport& verb = by_verb[v];
        out += std::string("    \"") + verb_name(static_cast<Verb>(v)) +
               "\": {";
        out += "\"sent\": " + number(verb.sent);
        out += ", \"completed\": " + number(verb.completed);
        out += ", \"errors\": " + number(verb.errors);
        out += ", \"degraded\": " + number(verb.degraded);
        out += ", \"latency\": " + latency_json(verb.latency);
        out += "}";
        out += v + 1 < kVerbCount ? ",\n" : "\n";
    }
    out += "  }\n";
    out += "}\n";
    return out;
}

} // namespace fpm::loadgen
