// perfbench — the partition service's benchmark program.
//
//   perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                 --work-dir DIR [--trace-file FILE] [--commit C]
//                 [--source DIGEST]
//   perfbench serve [...]            (a serving child; see stack.cpp)
//
// `--trace 0` is the gated run: the stack runs in child processes and
// the last line of stdout is the JSON result with every end-to-end
// metric.  `--trace 1` runs the stack in this process twice, untraced
// and traced, prints both runs' end-to-end numbers side by side and
// ends with the per-layer metrics.  perfbench/run.py builds this binary
// and passes the flags; see perfbench/README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sched.h>
#include <thread>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples = 0;  ///< for a quantile: the samples behind it
};

/// The exact q-quantile of raw samples (nearest rank), or nullopt when
/// fewer than 10 samples lie beyond it.
std::optional<double> quantile(std::vector<double> samples, double q,
                               std::size_t* count) {
    *count = samples.size();
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    if (rank == 0 || samples.size() - rank < 10) {
        return std::nullopt;
    }
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     samples.end());
    return samples[rank - 1];
}

/// Confines this process, and so every thread and child it starts, to
/// the highest vCPU it may use; returns that vCPU.  On a KVM guest a
/// wake-up across vCPUs costs what the host's load makes it cost, and
/// the scheduler's placement of the generator, reactor and pool threads
/// decides how many a request pays; on one vCPU every hand-off is a
/// local context switch (see README.md, Noise).
int pin_to_one_cpu() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    FPM_CHECK(::sched_getaffinity(0, sizeof allowed, &allowed) == 0,
              "sched_getaffinity failed");
    int cpu = 0;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) {
            cpu = c;
        }
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    FPM_CHECK(::sched_setaffinity(0, sizeof one, &one) == 0,
              "sched_setaffinity failed");
    return cpu;
}

double median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

double ratio(double part, double whole) {
    return whole == 0.0 ? 0.0 : part / whole;
}

std::string format(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

/// A pass's end-to-end metrics; a quantile the samples cannot support
/// is listed as missing instead.
struct EndToEnd {
    std::vector<Metric> metrics;
    std::vector<std::string> missing;
};

void add_quantile(EndToEnd& out, const std::string& name,
                  const std::vector<double>& seconds, double q, double scale,
                  const std::string& unit) {
    std::size_t count = 0;
    const auto value = quantile(seconds, q, &count);
    if (!value) {
        out.missing.push_back(name + " (" + std::to_string(count) +
                              " samples)");
        return;
    }
    out.metrics.push_back({name, *value * scale, unit, count});
}

/// The end-to-end metrics of one pass.
EndToEnd end_to_end(const PassResult& r) {
    EndToEnd out;
    const double attempted = static_cast<double>(r.attempted);
    out.metrics.push_back({"setup_s", median(r.setup_s), "s"});
    out.metrics.push_back(
        {"throughput_rps",
         ratio(attempted - static_cast<double>(r.lost), r.timed_s), "req/s"});
    add_quantile(out, "partition_p50_us", r.partition_rtt_s, 0.50, 1e6, "us");
    add_quantile(out, "partition_p99_us", r.partition_rtt_s, 0.99, 1e6, "us");
    out.metrics.push_back({"server_cpu_us_per_req",
                           ratio(r.server_cpu_s, attempted) * 1e6, "us"});
    if (r.server_peak_rss_mb) {
        out.metrics.push_back({"server_peak_rss_mb", *r.server_peak_rss_mb,
                               "MB"});
    }
    out.metrics.push_back(
        {"ok_share", ratio(attempted - static_cast<double>(r.failed), attempted),
         "ratio"});
    if (r.feedbacks > 0) {
        add_quantile(out, "publish_visible_p50_ms", r.visible_s, 0.50, 1e3,
                     "ms");
        add_quantile(out, "publish_visible_p95_ms", r.visible_s, 0.95, 1e3,
                     "ms");
    }
    return out;
}

/// Per-layer metrics of a traced pass `t`; `u` is the untraced pass of
/// the same invocation (the generator's own cost is read there).
std::vector<Metric> per_layer(const PassResult& t, const PassResult& u) {
    const auto span_us = [&](const char* name, bool self) {
        const auto it = t.spans.find(name);
        if (it == t.spans.end()) {
            return 0.0;
        }
        return (self ? it->second.self_ns : it->second.total_ns) /
               static_cast<double>(it->second.count) / 1e3;
    };
    const auto histogram_us = [&](const char* name, std::uint64_t less_count,
                                  double less_sum) {
        const auto it = t.histograms.find(name);
        if (it == t.histograms.end()) {
            return 0.0;
        }
        return ratio(it->second.second - less_sum,
                     static_cast<double>(it->second.first - less_count)) *
               1e6;
    };
    const double publishes = static_cast<double>(t.republished);
    return {
        {"serve.transport_us", span_us("request.partition", true), "us"},
        {"serve.protocol.decode_us", span_us("serve.protocol.decode", false),
         "us"},
        {"serve.protocol.encode_us", span_us("serve.protocol.encode", false),
         "us"},
        {"serve.cache.probe_us", span_us("serve.cache.probe", false), "us"},
        {"serve.cache.hit_ratio",
         ratio(static_cast<double>(t.hits), static_cast<double>(t.partitions)),
         "ratio"},
        {"serve.engine.computed_per_req",
         ratio(static_cast<double>(t.computed),
               static_cast<double>(t.attempted)),
         "count"},
        {"serve.engine.degraded", static_cast<double>(t.degraded), "count"},
        {"serve.reactor.queue_to_reply_us",
         histogram_us("serve.reactor.queue_to_reply_seconds", 0, 0.0), "us"},
        {"rt.pool.hop_us", span_us("rt.pool.hop", true), "us"},
        {"rt.pool.queue_wait_us",
         histogram_us("rt.pool.queue_wait_seconds", t.shadow.queue_wait_count,
                      t.shadow.queue_wait_sum),
         "us"},
        {"part.bisection_us", span_us("part.bisection", false), "us"},
        {"part.iterations_per_call",
         ratio(static_cast<double>(t.shadow.bisection_iterations),
               static_cast<double>(t.shadow.bisection_calls)),
         "count"},
        {"part.rounding_us", span_us("part.rounding", false), "us"},
        {"part.layout_us", span_us("part.layout", false), "us"},
        {"core.model_build_ms", span_us("core.model_build", false) / 1e3,
         "ms"},
        {"adapt.feedback_us", span_us("adapt.feedback", false), "us"},
        {"adapt.republish_per_1k_feedback",
         ratio(publishes * 1e3, static_cast<double>(t.feedbacks)), "count"},
        {"store.append_us", span_us("store.append", true), "us"},
        {"store.bytes_per_publish",
         ratio(static_cast<double>(t.store_bytes),
               static_cast<double>(t.store_appends)),
         "B"},
        {"store.snapshot_ms", span_us("store.snapshot", false) / 1e3, "ms"},
        {"store.snapshots_per_100_publish",
         ratio(static_cast<double>(t.store_snapshots) * 100.0, publishes),
         "count"},
        {"repl.apply_us", histogram_us("repl.apply_seconds", 0, 0.0), "us"},
        {"repl.reconnects_per_100_publish",
         ratio(static_cast<double>(t.reconnects.value_or(0)) * 100.0,
               publishes),
         "count"},
        {"repl.snapshot_transfers_per_100_publish",
         ratio(static_cast<double>(t.snapshot_transfers.value_or(0)) * 100.0,
               publishes),
         "count"},
        {"loadgen.client_cpu_us_per_req",
         ratio(u.client_cpu_s, static_cast<double>(u.attempted)) * 1e6, "us"},
    };
}

void print_result(bool correct, const PassResult& r,
                  const std::vector<Metric>& metrics) {
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(r.attempted) +
                       ", \"failed\": " + std::to_string(r.failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
                "\": {\"value\": " + format(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    std::printf("%s}}\n", json.c_str());
}

void print_record(const RunOptions& o, std::size_t requests,
                  const PassResult& r) {
    const bool publish = o.workload->kind == WorkloadKind::kPublishReplicate;
    const fpm::serve::ServeConfig serve;
    const fpm::serve::RequestEngine::Options engine;
    const std::string fsync =
        publish ? std::string(fpm::store::to_string(store_options().fsync_policy))
                : "none";
    std::printf(
        "run_record {\"workload\": \"%s\", \"seed\": %llu, \"requests\": %zu, "
        "\"trace\": %d, \"stream_fingerprint\": \"%016llx\", "
        "\"stack\": {\"reactors\": %zu, \"workers\": %u, "
        "\"cache_capacity\": %zu, \"cache_shards\": %zu, \"adapt\": %s, "
        "\"replicas\": %d, \"store_fsync\": \"%s\", \"snapshot_every\": %llu}, "
        "\"nproc\": %u, \"cpu\": %d, \"compiler\": \"%s\", "
        "\"build_type\": \"%s\", "
        "\"commit\": \"%s\", \"source_sha256\": \"%s\"}\n",
        o.workload->name, static_cast<unsigned long long>(o.seed), requests,
        o.trace ? 1 : 0, static_cast<unsigned long long>(r.fingerprint),
        serve.num_reactors, engine.workers, engine.cache_capacity,
        engine.cache_shards, publish ? "true" : "false", publish ? 1 : 0,
        fsync.c_str(),
        static_cast<unsigned long long>(store_options().snapshot_every),
        std::thread::hardware_concurrency(), o.cpu, PERFBENCH_COMPILER,
        PERFBENCH_BUILD_TYPE, o.commit.c_str(), o.source.c_str());
}

/// Counts that must repeat exactly for one seed.
void print_counts(const PassResult& r) {
    std::printf("counts stream=%016llx requests=%zu hits=%llu computed=%llu "
                "republished=%llu store_appends=%llu store_snapshots=%llu",
                static_cast<unsigned long long>(r.fingerprint), r.attempted,
                static_cast<unsigned long long>(r.hits),
                static_cast<unsigned long long>(r.computed),
                static_cast<unsigned long long>(r.republished),
                static_cast<unsigned long long>(r.store_appends),
                static_cast<unsigned long long>(r.store_snapshots));
    if (r.reconnects) {
        std::printf(" bisection_iterations=%llu repl_reconnects=%llu "
                    "repl_snapshot_transfers=%llu",
                    static_cast<unsigned long long>(
                        r.shadow.bisection_iterations),
                    static_cast<unsigned long long>(*r.reconnects),
                    static_cast<unsigned long long>(*r.snapshot_transfers));
    }
    std::printf("\n");
}

bool report_failures(const PassResult& r, const char* pass) {
    for (const auto& failure : r.failures) {
        std::fprintf(stderr, "perfbench: %s check failed: %s\n", pass,
                     failure.c_str());
    }
    return r.correct;
}

int gated(const RunOptions& options, std::size_t requests) {
    const PassResult r = run_pass(options, requests, false, nullptr);
    print_record(options, requests, r);
    print_counts(r);
    const bool correct = report_failures(r, "gated");
    EndToEnd e2e = end_to_end(r);
    for (const auto& m : e2e.metrics) {
        std::printf("metric %s %s %s", m.name.c_str(), format(m.value).c_str(),
                    m.unit.c_str());
        std::printf(m.samples > 0 ? " samples=%zu\n" : "\n", m.samples);
    }
    if (!e2e.missing.empty()) {
        for (const auto& name : e2e.missing) {
            std::fprintf(stderr,
                         "perfbench: fewer than 10 samples beyond %s\n",
                         name.c_str());
        }
        return 1;
    }
    // The result carries the gated metrics, BENCHMARK.json's end_to_end
    // list; README.md says why the quantiles are printed but not gated.
    std::erase_if(e2e.metrics, [](const Metric& m) { return m.samples > 0; });
    print_result(correct, r, e2e.metrics);
    return 0;
}

int traced(const RunOptions& options, std::size_t requests) {
    const PassResult untraced = run_pass(options, requests, true, nullptr);
    Tracer tracer;
    const PassResult t = run_pass(options, requests, true, &tracer);
    std::filesystem::create_directories(
        std::filesystem::path(options.trace_file).parent_path());
    tracer.write_chrome_trace(options.trace_file);
    print_record(options, requests, t);
    print_counts(t);
    const bool untraced_correct = report_failures(untraced, "untraced");
    const bool correct = report_failures(t, "traced") && untraced_correct;

    // Both passes run the stack in this process, so their difference is
    // the cost of the replay spans alone.
    const EndToEnd a = end_to_end(untraced);
    const EndToEnd b = end_to_end(t);
    std::printf("%-26s %16s %16s %9s\n", "end_to_end (in-process)",
                "untraced", "traced", "overhead");
    for (const auto& m : a.metrics) {
        const auto it = std::find_if(
            b.metrics.begin(), b.metrics.end(),
            [&](const Metric& other) { return other.name == m.name; });
        if (it != b.metrics.end()) {
            std::printf("%-26s %16.6g %16.6g %8.1f%%  %s\n", m.name.c_str(),
                        m.value, it->value,
                        100.0 * ratio(it->value - m.value, m.value),
                        m.unit.c_str());
        }
    }
    for (const auto& name : b.missing) {
        std::printf("%-26s (fewer than 10 samples beyond it)\n", name.c_str());
    }
    const auto layers = per_layer(t, untraced);
    for (const auto& m : layers) {
        std::printf("layer %s %s %s\n", m.name.c_str(),
                    format(m.value).c_str(), m.unit.c_str());
    }
    std::printf("spans %zu written to %s\n", tracer.spans().size(),
                options.trace_file.c_str());
    print_result(correct, t, layers);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    if (argc >= 2 && std::string(argv[1]) == "serve") {
        return perfbench::serve_main(argc, argv);
    }
    try {
        RunOptions options;
        bool ok = argc >= 2 && std::string(argv[1]) == "run";
        for (int i = 2; ok && i + 1 < argc; i += 2) {
            const std::string flag = argv[i];
            const std::string value = argv[i + 1];
            if (flag == "--workload") {
                options.workload = find_workload(value);
                ok = options.workload != nullptr;
            } else if (flag == "--seed") {
                options.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                options.seconds = std::stoi(value);
                ok = options.seconds >= 1;
            } else if (flag == "--trace") {
                options.trace = value == "1";
                ok = value == "0" || value == "1";
            } else if (flag == "--work-dir") {
                options.work_dir = value;
            } else if (flag == "--trace-file") {
                options.trace_file = value;
            } else if (flag == "--commit") {
                options.commit = value;
            } else if (flag == "--source") {
                options.source = value;
            } else {
                ok = false;
            }
        }
        if (!ok || argc % 2 != 0 || options.workload == nullptr ||
            options.work_dir.empty()) {
            std::fprintf(stderr,
                         "usage: perfbench run --workload NAME --seed N "
                         "--seconds S --trace 0|1 --work-dir DIR "
                         "[--trace-file FILE] [--commit C] [--source D]\n");
            return 2;
        }
        if (options.trace_file.empty()) {
            options.trace_file = options.work_dir + "/trace.json";
        }
        options.self_exe = std::filesystem::read_symlink("/proc/self/exe");
        options.cpu = pin_to_one_cpu();
        std::filesystem::create_directories(options.work_dir);
        const auto requests = static_cast<std::size_t>(std::llround(
            options.workload->requests_per_second * options.seconds));
        // The traced invocation runs two passes with the replay on top,
        // so each pass gets a quarter of the gated request count.
        return options.trace ? traced(options, std::max<std::size_t>(
                                                   requests / 4, 1))
                             : gated(options, requests);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
