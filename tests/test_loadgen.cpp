// Tests for the load-generation subsystem (fpm::loadgen): seeded
// schedule/stream determinism, closed-loop parity with the direct
// library call (every wire reply bit-for-bit equal to
// RequestEngine::compute_plan), open-loop drop accounting under an
// artificially slowed server (fault-injected compute delay), and the
// BENCH_loadgen.json document to_json() renders.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fpm/core/models.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/loadgen/report.hpp"
#include "fpm/loadgen/runner.hpp"
#include "fpm/loadgen/workload.hpp"
#include "fpm/serve/model_registry.hpp"
#include "fpm/serve/protocol.hpp"
#include "fpm/serve/request_engine.hpp"
#include "fpm/serve/server.hpp"

namespace fpm::loadgen {
namespace {

using core::SpeedFunction;
using core::SpeedPoint;

std::vector<SpeedFunction> synthetic_models(std::size_t devices,
                                            std::size_t points_per_model) {
    std::vector<SpeedFunction> models;
    for (std::size_t d = 0; d < devices; ++d) {
        std::vector<SpeedPoint> points;
        const double peak = 40.0 + 17.0 * static_cast<double>(d);
        for (std::size_t p = 0; p < points_per_model; ++p) {
            const double x = 4.0 + 6000.0 * static_cast<double>(p) /
                                       static_cast<double>(points_per_model - 1);
            points.push_back(SpeedPoint{x, peak * x / (x + 25.0)});
        }
        models.emplace_back(std::move(points), "dev" + std::to_string(d));
    }
    return models;
}

WorkloadSpec partition_spec(std::uint64_t seed) {
    WorkloadSpec spec;
    spec.model_sets = {"hybrid"};
    spec.seed = seed;
    return spec;
}

// ---------------------------------------------------------------------------
// Determinism: the stream and the schedule are pure functions of the
// seed, across runs and regardless of who asks for which index.
// ---------------------------------------------------------------------------

TEST(Workload, RequestStreamIsSeededAndIndexable) {
    const WorkloadSpec spec = partition_spec(7);
    for (std::uint64_t i = 0; i < 64; ++i) {
        EXPECT_EQ(nth_request(spec, i).encode(), nth_request(spec, i).encode());
    }
    // A different seed reshuffles the stream.
    const WorkloadSpec other = partition_spec(8);
    std::size_t differing = 0;
    for (std::uint64_t i = 0; i < 64; ++i) {
        differing +=
            nth_request(spec, i).encode() != nth_request(other, i).encode();
    }
    EXPECT_GT(differing, 0U);

    EXPECT_EQ(stream_fingerprint(spec, 64), stream_fingerprint(spec, 64));
    EXPECT_NE(stream_fingerprint(spec, 64), stream_fingerprint(spec, 63));
    EXPECT_NE(stream_fingerprint(spec, 64), stream_fingerprint(other, 64));
}

TEST(Workload, MixedVerbsFollowTheWeights) {
    WorkloadSpec spec = partition_spec(3);
    spec.stats_weight = 1.0;
    spec.health_weight = 1.0;
    std::map<Verb, std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 300; ++i) {
        ++seen[verb_of(nth_request(spec, i))];
    }
    EXPECT_GT(seen[Verb::kPartition], 0U);
    EXPECT_GT(seen[Verb::kStats], 0U);
    EXPECT_GT(seen[Verb::kHealth], 0U);
    EXPECT_EQ(seen[Verb::kFeedback], 0U);  // weight 0 never appears
}

TEST(Workload, InvalidSpecsAreRejected) {
    WorkloadSpec spec = partition_spec(1);
    spec.partition_weight = 0.0;
    EXPECT_THROW((void)nth_request(spec, 0), Error);  // all-zero mix
    spec = partition_spec(1);
    spec.model_sets.clear();
    EXPECT_THROW((void)nth_request(spec, 0), Error);  // no target sets
    spec = partition_spec(1);
    spec.n_min = 10;
    spec.n_max = 5;
    EXPECT_THROW((void)nth_request(spec, 0), Error);  // inverted range
}

TEST(Workload, ArrivalScheduleIsSeededAndPaced) {
    const auto a = arrival_schedule(Arrival::kPoisson, 500.0, 1.0, 42);
    const auto b = arrival_schedule(Arrival::kPoisson, 500.0, 1.0, 42);
    const auto c = arrival_schedule(Arrival::kPoisson, 500.0, 1.0, 43);
    EXPECT_EQ(a, b);  // bit-for-bit replay
    EXPECT_NE(a, c);
    // Rough Poisson sanity: mean gap 1/rps over a 1 s horizon.
    EXPECT_GT(a.size(), 350U);
    EXPECT_LT(a.size(), 700U);

    const auto uniform = arrival_schedule(Arrival::kUniform, 100.0, 1.0, 1);
    ASSERT_EQ(uniform.size(), 100U);
    EXPECT_DOUBLE_EQ(uniform[0], 0.0);
    EXPECT_NEAR(uniform[99] - uniform[98], 0.01, 1e-12);

    EXPECT_THROW((void)arrival_schedule(Arrival::kUniform, 0.0, 1.0, 1),
                 Error);
    EXPECT_THROW((void)arrival_schedule(Arrival::kUniform, 10.0, 0.0, 1),
                 Error);
}

// ---------------------------------------------------------------------------
// Closed loop: the generated stream served over the wire answers
// bit-for-bit what the direct library call computes.
// ---------------------------------------------------------------------------

TEST(ClosedLoop, RepliesMatchDirectLibraryCallBitForBit) {
    serve::ModelRegistry registry;
    registry.put("hybrid", synthetic_models(3, 32));
    serve::RequestEngine engine(registry, {.workers = 2, .cache_capacity = 64});
    serve::SocketServer server(engine);
    server.start();

    WorkloadSpec spec = partition_spec(11);
    spec.n_min = 16;
    spec.n_max = 48;

    LoadConfig cfg;
    cfg.port = server.port();
    cfg.mode = Mode::kClosed;
    cfg.connections = 4;
    cfg.requests = 64;  // fixed budget: the stream length is pinned
    std::map<std::uint64_t, std::string> replies;
    cfg.observer = [&replies](std::uint64_t index, const serve::Request&,
                              const std::string& reply) {
        replies[index] = reply;
    };

    const Report report = run(spec, cfg);
    server.stop();

    EXPECT_EQ(report.mode, "closed");
    EXPECT_EQ(report.sent, 64U);
    EXPECT_EQ(report.completed, 64U);
    EXPECT_EQ(report.errors, 0U);
    EXPECT_EQ(report.scheduled, report.sent + report.dropped);
    EXPECT_EQ(report.stream_fingerprint, stream_fingerprint(spec, 64));
    EXPECT_EQ(report.latency.count, 64U);
    EXPECT_GT(report.latency.p50_us, 0.0);
    EXPECT_GE(report.latency.p999_us, report.latency.p50_us);

    // Indices 0..63 each observed exactly once, and every wire reply
    // equals the direct library call on the same request.
    ASSERT_EQ(replies.size(), 64U);
    const auto set = registry.get("hybrid");
    for (const auto& [index, reply] : replies) {
        ASSERT_LT(index, 64U);
        const serve::Request request = nth_request(spec, index);
        const serve::PartitionReply served =
            serve::parse_partition_reply(reply);
        const serve::PartitionPlan direct = serve::RequestEngine::compute_plan(
            *set, request.partition.n, request.partition.algorithm, true);
        EXPECT_EQ(served.blocks, direct.blocks) << index;
        EXPECT_EQ(served.balanced_time, direct.balanced_time) << index;
        EXPECT_EQ(served.makespan, direct.makespan) << index;
        EXPECT_EQ(served.comm_cost, direct.comm_cost) << index;
    }
}

// ---------------------------------------------------------------------------
// Open loop: a server that cannot keep up turns arrivals into counted
// drops — never into silently deferred sends.
// ---------------------------------------------------------------------------

TEST(OpenLoop, SlowServerProducesCountedDrops) {
    serve::ModelRegistry registry;
    registry.put("hybrid", synthetic_models(3, 32));
    serve::RequestEngine engine(registry, {.workers = 2, .cache_capacity = 64});
    serve::SocketServer server(engine);
    server.start();

    // Every cold compute eats a deterministic 30 ms: at 400 req/s the
    // two engine workers can serve a small fraction of the offered load.
    fault::install(fault::FaultPlan::parse("seed=1,serve.compute=1:delay:30"));

    WorkloadSpec spec = partition_spec(5);
    LoadConfig cfg;
    cfg.port = server.port();
    cfg.mode = Mode::kOpen;
    cfg.arrival = Arrival::kUniform;
    cfg.target_rps = 400.0;
    cfg.duration_seconds = 0.5;
    cfg.connections = 2;
    cfg.max_outstanding = 4;

    const Report report = run(spec, cfg);
    fault::uninstall();
    server.stop();

    EXPECT_EQ(report.mode, "open");
    EXPECT_EQ(report.arrival, "uniform");
    EXPECT_EQ(report.scheduled, 200U);  // 400 rps * 0.5 s, uniform
    // The drop-accounting invariant, and the drops themselves.
    EXPECT_EQ(report.scheduled, report.sent + report.dropped);
    EXPECT_GT(report.dropped, 0U);
    EXPECT_GT(report.completed, 0U);
    EXPECT_EQ(report.errors, 0U);  // delays are latency, not failures
    // The offered stream is the whole schedule, drops included.
    EXPECT_EQ(report.stream_fingerprint,
              stream_fingerprint(spec, report.scheduled));
    // Latency is measured from the *scheduled* arrival, so the injected
    // service delay is a hard floor for every completed request.
    EXPECT_GE(report.latency.p50_us, 30e3);
}

// ---------------------------------------------------------------------------
// Report schema: field names, order and number formatting are the
// BENCH_loadgen.json contract (docs/benchmarking.md section 5).
// ---------------------------------------------------------------------------

TEST(Report, ToJsonIsPinned) {
    Report report;
    report.mode = "open";
    report.arrival = "poisson";
    report.seed = 7;
    report.connections = 8;
    report.max_outstanding = 64;
    report.think_time_seconds = 0.001;
    report.duration_seconds = 10.0625;
    report.target_rps = 2000.0;
    report.achieved_rps = 1993.0387219134271;
    report.scheduled = 20001;
    report.sent = 19876;
    report.completed = 19870;
    report.errors = 3;
    report.degraded = 2;
    report.dropped = 125;
    report.stream_fingerprint = 0xdeadbeefcafebabeULL;
    report.latency = {19870,  812.5,        41.0, 90417.25,
                      640.25, 2310.0078125, 8000.5, 41210.033203125};
    report.by_verb[0] = {15000, 14995, 2, 2, report.latency};
    report.by_verb[2] = {4876, 4875, 1, 0, {}};

    EXPECT_EQ(report.to_json(), R"json({
  "schema": "fpmpart-loadgen-v1",
  "mode": "open",
  "arrival": "poisson",
  "seed": 7,
  "connections": 8,
  "max_outstanding": 64,
  "think_time_seconds": 0.001,
  "duration_seconds": 10.0625,
  "target_rps": 2000,
  "achieved_rps": 1993.038721913427,
  "scheduled": 20001,
  "sent": 19876,
  "completed": 19870,
  "errors": 3,
  "degraded": 2,
  "dropped": 125,
  "failovers": 0,
  "stream_fingerprint": "deadbeefcafebabe",
  "latency": {"count": 19870, "mean_us": 812.5, "min_us": 41, "max_us": 90417.25, "p50_us": 640.25, "p95_us": 2310.0078125, "p99_us": 8000.5, "p999_us": 41210.033203125},
  "verbs": {
    "partition": {"sent": 15000, "completed": 14995, "errors": 2, "degraded": 2, "latency": {"count": 19870, "mean_us": 812.5, "min_us": 41, "max_us": 90417.25, "p50_us": 640.25, "p95_us": 2310.0078125, "p99_us": 8000.5, "p999_us": 41210.033203125}},
    "stats": {"sent": 0, "completed": 0, "errors": 0, "degraded": 0, "latency": {"count": 0, "mean_us": 0, "min_us": 0, "max_us": 0, "p50_us": 0, "p95_us": 0, "p99_us": 0, "p999_us": 0}},
    "health": {"sent": 4876, "completed": 4875, "errors": 1, "degraded": 0, "latency": {"count": 0, "mean_us": 0, "min_us": 0, "max_us": 0, "p50_us": 0, "p95_us": 0, "p99_us": 0, "p999_us": 0}},
    "feedback": {"sent": 0, "completed": 0, "errors": 0, "degraded": 0, "latency": {"count": 0, "mean_us": 0, "min_us": 0, "max_us": 0, "p50_us": 0, "p95_us": 0, "p99_us": 0, "p999_us": 0}}
  }
}
)json");

    // %.17g: a double that needs all 17 digits keeps them.
    report.achieved_rps = 0.1;
    EXPECT_NE(report.to_json().find("\"achieved_rps\": 0.10000000000000001,"),
              std::string::npos);
}

TEST(Report, LatencyDigestConvertsSecondsToMicros) {
    obs::Histogram histogram;
    histogram.record(0.001);
    histogram.record(0.002);
    histogram.record(0.004);
    const LatencyReport latency =
        LatencyReport::from(histogram.snapshot());
    EXPECT_EQ(latency.count, 3U);
    EXPECT_NEAR(latency.mean_us, 2333.3, 5.0);
    EXPECT_NEAR(latency.min_us, 1000.0, 1e-6);
    EXPECT_NEAR(latency.max_us, 4000.0, 1e-6);
    // Log-bucket quantiles carry <= ~9 % relative error.
    EXPECT_NEAR(latency.p50_us, 2000.0, 200.0);
    EXPECT_GE(latency.p999_us, latency.p50_us);
}

} // namespace
} // namespace fpm::loadgen
