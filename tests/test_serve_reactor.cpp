// Tests for the serve reactor's connection lifecycle: request
// pipelining (many lines written back-to-back, responses strictly in
// request order, bit-for-bit equal to the direct library call under 64
// concurrent pipelined clients), one request at a time per connection
// (pipelined FEEDBACK and LOAD execute in arrival order, a pipelined
// replay answers like a serial one, a client that stops reading stays
// bounded and is evicted, a half-closed batch is answered in full, so
// is a batch whose replies outgrow the 1 MiB output bound, pipeline()
// completes a batch of any size, seeded splits of hostile input answer
// like one write), idle-timeout
// eviction (slow loris out; in-flight and talking clients kept),
// PARTITION misses computing on their reactor, never on the engine pool,
// FEEDBACK on the engine pool answering exactly like handle_line(),
// max_connections admission control, graceful drain of in-flight
// requests on stop(), and the reactor fields surfaced through STATS.
// The ServeReactorPool suite reruns the parity and admission
// workloads against a 4-reactor SO_REUSEPORT pool — replies must stay
// bit-for-bit identical at every reactor count, the max_connections
// budget must stay global, drain must complete on every reactor, the
// STATS aggregation invariant (per-shard cache counters summing to the
// global ones) must hold, and the `reactors` gauge must count every
// running server in the process.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "fpm/adapt/engine.hpp"
#include "fpm/core/model_io.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/measure/timer.hpp"
#include "fpm/serve/client.hpp"
#include "fpm/serve/line_conn.hpp"
#include "fpm/serve/model_registry.hpp"
#include "fpm/serve/protocol.hpp"
#include "fpm/serve/reactor_metrics.hpp"
#include "fpm/serve/request_engine.hpp"
#include "fpm/serve/server.hpp"
#include "stress_harness.hpp"

namespace fpm::serve {
namespace {

using core::SpeedFunction;
using core::SpeedPoint;

/// Deterministic synthetic device set (same family as test_serve.cpp).
std::vector<SpeedFunction> synthetic_models(std::size_t devices,
                                            std::size_t points_per_model,
                                            double peak_scale) {
    std::vector<SpeedFunction> models;
    for (std::size_t d = 0; d < devices; ++d) {
        std::vector<SpeedPoint> points;
        const double peak = peak_scale * (40.0 + 17.0 * static_cast<double>(d));
        const double cliff = 900.0 + 400.0 * static_cast<double>(d);
        const double x_max = 6000.0;
        for (std::size_t p = 0; p < points_per_model; ++p) {
            const double x = 4.0 + (x_max - 4.0) * static_cast<double>(p) /
                                       static_cast<double>(points_per_model - 1);
            const double ramp = x / (x + 25.0);
            const double speed = (x < cliff ? peak : 0.45 * peak) * ramp;
            points.push_back(SpeedPoint{x, speed});
        }
        models.emplace_back(std::move(points),
                            "dev" + std::to_string(d) + "s" +
                                std::to_string(devices));
    }
    return models;
}

std::string partition_line(const std::string& model, std::int64_t n,
                           Algorithm algorithm) {
    Request request;
    request.kind = Request::Kind::kPartition;
    request.partition = PartitionRequest{model, n, algorithm, true};
    return request.encode();
}

/// Uninstalls any leftover fault plan when a test exits.
struct FaultGuard {
    ~FaultGuard() { fault::uninstall(); }
};

/// Devices whose speed functions end at `capacity` blocks.
std::vector<SpeedFunction> bounded_models(std::size_t devices,
                                          double capacity) {
    std::vector<SpeedFunction> models;
    for (std::size_t d = 0; d < devices; ++d) {
        models.emplace_back(
            std::vector<SpeedPoint>{{10.0, 50.0}, {capacity, 60.0}},
            "cap" + std::to_string(d), capacity);
    }
    return models;
}

/// A blocking loopback connection to `port` with TCP_NODELAY (so each
/// write leaves as its own segment) and a 5 s receive deadline.
int raw_connect(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const timeval tv{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    return fd;
}

void send_all(int fd, const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                                 MSG_NOSIGNAL);
        ASSERT_GT(n, 0) << std::strerror(errno);
        sent += static_cast<std::size_t>(n);
    }
}

/// Every line the server sends until it closes; an unterminated tail
/// is returned as a last element.  Fails the test when no EOF arrives
/// within the receive deadline.
std::vector<std::string> read_lines_to_eof(int fd) {
    std::string data;
    char chunk[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n > 0) {
            data.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR) {
            continue;
        }
        EXPECT_EQ(n, 0) << "no EOF from the server: " << std::strerror(errno);
        break;
    }
    std::vector<std::string> lines;
    std::size_t head = 0;
    for (auto newline = data.find('\n'); newline != std::string::npos;
         newline = data.find('\n', head)) {
        lines.push_back(data.substr(head, newline - head));
        head = newline + 1;
    }
    if (head < data.size()) {
        lines.push_back(data.substr(head));
    }
    return lines;
}

// ---------------------------------------------------------------------------
// 64 concurrent pipelined clients, responses bit-for-bit vs the direct
// library call and strictly in request order — at any reactor count.
// ---------------------------------------------------------------------------
void pipelined_parity_against_direct(std::size_t num_reactors) {
    ModelRegistry registry;
    const auto alpha = registry.put("alpha", synthetic_models(4, 200, 1.0));
    const auto beta = registry.put("beta", synthetic_models(3, 200, 1.7));
    RequestEngine engine(registry, {.workers = 4, .cache_capacity = 256});
    ServeConfig config;
    config.num_reactors = num_reactors;
    SocketServer server(engine, config);
    server.start();
    ASSERT_EQ(server.num_reactors(), num_reactors);

    const ReactorMetrics& metrics = ReactorMetrics::get();
    const std::uint64_t pipelined_before = metrics.pipelined.value();

    constexpr std::size_t kClients = 64;
    constexpr std::size_t kRequestsPerClient = 8;
    const std::int64_t ns[] = {24, 30, 36, 42, 48, 54, 60, 66};
    const Algorithm algorithms[] = {Algorithm::kFpm, Algorithm::kCpm,
                                    Algorithm::kEven};

    // Every client pipelines its whole batch (plus QUIT) in one write.
    std::vector<std::vector<PartitionRequest>> requests(kClients);
    std::vector<std::vector<std::string>> replies(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
        for (std::size_t j = 0; j < kRequestsPerClient; ++j) {
            const std::size_t mix = i + j;
            requests[i].push_back(PartitionRequest{
                (mix % 2 == 0) ? "alpha" : "beta", ns[mix % 8],
                algorithms[mix % 3], true});
        }
    }

    fpm::test::run_concurrently(kClients, [&](std::size_t i) {
        ServeClient client("127.0.0.1", server.port());
        std::vector<std::string> lines;
        for (const auto& request : requests[i]) {
            lines.push_back(partition_line(request.model_set, request.n,
                                           request.algorithm));
        }
        lines.push_back("QUIT");
        replies[i] = client.pipeline(lines);
    });

    // Direct library answers, one per distinct (set, n, algorithm).
    std::map<std::tuple<std::string, std::int64_t, int>, PartitionPlan>
        direct;
    for (const auto& batch : requests) {
        for (const auto& request : batch) {
            const auto key = std::make_tuple(
                request.model_set, request.n,
                static_cast<int>(request.algorithm));
            if (direct.find(key) == direct.end()) {
                const auto& set =
                    request.model_set == "alpha" ? alpha : beta;
                direct.emplace(key,
                               RequestEngine::compute_plan(
                                   *set, request.n, request.algorithm, true));
            }
        }
    }

    for (std::size_t i = 0; i < kClients; ++i) {
        ASSERT_EQ(replies[i].size(), kRequestsPerClient + 1) << i;
        EXPECT_EQ(replies[i].back(), "OK BYE") << i;
        for (std::size_t j = 0; j < kRequestsPerClient; ++j) {
            const auto& request = requests[i][j];
            const PartitionReply reply =
                parse_partition_reply(replies[i][j]);
            const PartitionPlan& expected = direct.at(std::make_tuple(
                request.model_set, request.n,
                static_cast<int>(request.algorithm)));
            // In-order: the j-th reply answers the j-th request.
            EXPECT_EQ(reply.model, request.model_set) << i << "," << j;
            EXPECT_EQ(reply.n, request.n) << i << "," << j;
            EXPECT_EQ(reply.algorithm, request.algorithm) << i << "," << j;
            // Bit-for-bit vs the direct library call.
            EXPECT_EQ(reply.blocks, expected.blocks) << i << "," << j;
            EXPECT_EQ(reply.balanced_time, expected.balanced_time)
                << i << "," << j;
            EXPECT_EQ(reply.makespan, expected.makespan) << i << "," << j;
            EXPECT_EQ(reply.comm_cost, expected.comm_cost) << i << "," << j;
            ASSERT_EQ(reply.rects.size(), expected.layout.rects.size())
                << i << "," << j;
            for (std::size_t r = 0; r < reply.rects.size(); ++r) {
                EXPECT_EQ(reply.rects[r].col0, expected.layout.rects[r].col0);
                EXPECT_EQ(reply.rects[r].row0, expected.layout.rects[r].row0);
                EXPECT_EQ(reply.rects[r].w, expected.layout.rects[r].w);
                EXPECT_EQ(reply.rects[r].h, expected.layout.rects[r].h);
            }
        }
    }

    EXPECT_GE(server.connections_accepted(), kClients);
    // The batches genuinely pipelined: requests arrived while earlier
    // ones were still in flight.
    EXPECT_GT(metrics.pipelined.value(), pipelined_before);

    // The typed STATS surface reports the pool size while it runs.
    {
        ServeClient probe("127.0.0.1", server.port());
        const ServerStats stats = probe.stats();
        EXPECT_EQ(stats.reactors, num_reactors);
        EXPECT_GE(stats.requests, kClients * kRequestsPerClient);
    }

    server.stop();
    EXPECT_FALSE(server.running());
}

TEST(ServeReactor, PipelinedClientsMatchDirectLibraryCalls) {
    pipelined_parity_against_direct(1);
}

TEST(ServeReactorPool, FourReactorsMatchDirectLibraryCallsBitForBit) {
    pipelined_parity_against_direct(4);
}

// ---------------------------------------------------------------------------
// Responses interleave inline commands and computed partitions but
// always come back in request order on one connection.
// ---------------------------------------------------------------------------
TEST(ServeReactor, MixedPipelineKeepsRequestOrder) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(3, 64, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 32});
    SocketServer server(engine);
    server.start();

    ServeClient client("127.0.0.1", server.port());
    const std::vector<std::string> lines = {
        "PING",
        partition_line("hybrid", 32, Algorithm::kFpm),
        "BOGUS",
        partition_line("hybrid", 40, Algorithm::kCpm),
        "PING",
        "STATS",
    };
    const auto replies = client.pipeline(lines);
    ASSERT_EQ(replies.size(), lines.size());
    EXPECT_EQ(replies[0], "OK PONG v" + std::to_string(kProtocolVersion));
    EXPECT_EQ(parse_partition_reply(replies[1]).n, 32);
    EXPECT_EQ(replies[2].rfind("ERR ", 0), 0U) << replies[2];
    const PartitionReply second = parse_partition_reply(replies[3]);
    EXPECT_EQ(second.n, 40);
    EXPECT_EQ(second.algorithm, Algorithm::kCpm);
    EXPECT_EQ(replies[4], "OK PONG v" + std::to_string(kProtocolVersion));
    EXPECT_EQ(replies[5].rfind("OK STATS ", 0), 0U) << replies[5];

    // The reactor's lifecycle fields travel through STATS, fully typed:
    // every known field lands in ServerStats, nothing leaks to extras.
    const Response stats_response = Response::decode(replies[5]);
    ASSERT_EQ(stats_response.kind, Response::Kind::kStats);
    const ServerStats stats = ServerStats::from_fields(stats_response.fields);
    EXPECT_GE(stats.open_conns, 1);
    EXPECT_GE(stats.q2r_p50_us, 0.0);
    EXPECT_EQ(stats.reactors, 1U);
    EXPECT_EQ(stats.cache_shards, 1U);  // default single-stripe cache
    EXPECT_TRUE(stats.extras.empty()) << stats.extras.begin()->first;

    server.stop();
}

// ---------------------------------------------------------------------------
// A PARTITION miss computes on the reactor that read it: N distinct
// misses over a socket reach serve.compute N times and the engine
// pool's dispatch point not once.
// ---------------------------------------------------------------------------
TEST(ServeReactor, PartitionMissesNeverReachThePool) {
    FaultGuard guard;
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(3, 64, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 64});
    SocketServer server(engine);
    server.start();
    ServeClient client("127.0.0.1", server.port());

    // An armed plan makes every point count its evaluations; this one
    // names a point no request below reaches.
    fault::install(fault::FaultPlan::parse("store.fsync=1"));
    const auto& dispatch = fault::point("rt.dispatch");
    const auto& compute = fault::point("serve.compute");
    const std::uint64_t dispatched = dispatch.evaluated();
    const std::uint64_t computed = compute.evaluated();
    constexpr std::int64_t kMisses = 16;
    std::vector<std::string> lines;
    for (std::int64_t n = 20; n < 20 + kMisses; ++n) {
        lines.push_back(partition_line("hybrid", n, Algorithm::kFpm));
    }
    const auto replies = client.pipeline(lines);
    const std::uint64_t dispatched_after = dispatch.evaluated();
    const std::uint64_t computed_after = compute.evaluated();
    fault::uninstall();

    ASSERT_EQ(replies.size(), lines.size());
    for (std::size_t i = 0; i < replies.size(); ++i) {
        const PartitionReply reply = parse_partition_reply(replies[i]);
        EXPECT_EQ(reply.n, 20 + static_cast<std::int64_t>(i));
        EXPECT_FALSE(reply.cached) << replies[i];
    }
    EXPECT_EQ(dispatched_after - dispatched, 0U);
    EXPECT_EQ(computed_after - computed, static_cast<std::uint64_t>(kMisses));
    server.stop();
}

// ---------------------------------------------------------------------------
// Slow loris: a connection that trickles a partial line and then stalls
// is evicted after idle_timeout.
// ---------------------------------------------------------------------------
TEST(ServeReactor, SlowLorisEvictedByIdleTimeout) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(2, 16, 1.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 8});
    ServeConfig config;
    config.idle_timeout = 0.3;
    SocketServer server(engine, config);
    server.start();

    const ReactorMetrics& metrics = ReactorMetrics::get();
    const std::uint64_t evictions_before = metrics.idle_timeouts.value();

    const int fd = raw_connect(server.port());
    // A partial request line, then silence — never a newline.
    ASSERT_GT(::send(fd, "PARTIT", 6, MSG_NOSIGNAL), 0);

    measure::WallTimer timer;
    char byte;
    const ssize_t n = ::recv(fd, &byte, 1, 0);  // blocks until eviction
    const double waited = timer.elapsed();
    EXPECT_EQ(n, 0) << "expected EOF from the server, got errno="
                    << std::strerror(errno);
    EXPECT_LT(waited, 3.0) << "eviction took too long";
    EXPECT_GT(metrics.idle_timeouts.value(), evictions_before);
    ::close(fd);

    // A live client is unaffected as long as it keeps talking.
    ServeClient client("127.0.0.1", server.port());
    client.ping();
    server.stop();
}

// ---------------------------------------------------------------------------
// Idle eviction spares a connection waiting on its reply (and restarts
// its clock at the reply) and one that keeps talking; the waiter, once
// silent for longer, is evicted.
// ---------------------------------------------------------------------------
TEST(ServeReactor, IdleTimeoutSparesInFlightAndTalkingClients) {
    FaultGuard guard;
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(2, 16, 1.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 8});
    ServeConfig config;
    config.idle_timeout = 0.2;
    SocketServer server(engine, config);
    server.start();
    const auto half_idle = std::chrono::milliseconds(100);

    // The compute stalls 400 ms, twice the idle timeout, then answers.
    fault::install(fault::FaultPlan::parse("serve.compute=1:delay:400"));
    ServeClient waiting("127.0.0.1", server.port());
    measure::WallTimer timer;
    const PartitionReply reply = parse_partition_reply(
        waiting.request(partition_line("hybrid", 24, Algorithm::kFpm)));
    EXPECT_GT(timer.elapsed(), config.idle_timeout);
    EXPECT_EQ(reply.n, 24);
    fault::uninstall();
    std::this_thread::sleep_for(half_idle);
    waiting.ping();  // the reply restarted the idle clock

    // One request line trickled a byte every 40 ms, across three idle
    // periods without a reply: every read restarts the idle clock.
    LineConn talking(Endpoint{"127.0.0.1", server.port()}, 5.0, 5.0);
    const std::string line = partition_line("hybrid", 32, Algorithm::kFpm);
    timer.reset();
    for (const char byte : line + "\n") {
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
        talking.send(std::string(1, byte));
    }
    EXPECT_GT(timer.elapsed(), 3.0 * config.idle_timeout);
    EXPECT_EQ(parse_partition_reply(talking.read_line(kMaxLineBytes)).n, 32);

    // The waiter has been silent all that time.
    EXPECT_THROW((void)waiting.request("PING"), TransportError);
    server.stop();
}

// ---------------------------------------------------------------------------
// FEEDBACK runs handle_request() on the engine pool: over the socket it
// answers byte for byte what handle_line() answers in process, and a
// handler throwing something that is no std::exception still gets one
// reply.
// ---------------------------------------------------------------------------
TEST(ServeReactor, FeedbackRepliesMatchHandleLine) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(2, 16, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 8});
    SocketServer server(engine);
    server.start();
    ServeClient client("127.0.0.1", server.port());
    const std::string line = "FEEDBACK hybrid 1 1000 2.5";

    const auto same_reply = [&](const std::string& expected_prefix) {
        const std::string wire = client.request(line);
        EXPECT_EQ(wire, handle_line(engine, line));
        EXPECT_EQ(wire.rfind(expected_prefix, 0), 0U) << wire;
    };
    same_reply("ERR feedback_disabled");
    engine.set_feedback_handler([](const FeedbackSample& sample) {
        return FeedbackReply{sample.model_set, sample.device, 3, true,
                             false, false, 7};
    });
    same_reply("OK FEEDBACK set=hybrid device=1 samples=3 ");
    engine.set_read_only(true);
    same_reply("ERR read_only");
    engine.set_read_only(false);

    engine.set_feedback_handler([](const FeedbackSample&) -> FeedbackReply {
        throw 42;  // not a std::exception: no message to show
    });
    same_reply("ERR internal");
    client.ping();  // the connection stays in step
    server.stop();
}

// ---------------------------------------------------------------------------
// Admission control: connections beyond max_connections get a typed
// `ERR busy` and are closed; admitted ones keep working.  The budget is
// global — with a reactor pool, the kernel may spread the connections
// over different reactors and the cap must still hold pool-wide.
// ---------------------------------------------------------------------------
void admission_budget_is_enforced(std::size_t num_reactors) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(2, 16, 1.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 8});
    ServeConfig config;
    config.max_connections = 2;
    config.num_reactors = num_reactors;
    SocketServer server(engine, config);
    server.start();

    const ReactorMetrics& metrics = ReactorMetrics::get();
    const std::uint64_t rejected_before = metrics.rejected.value();

    ServeClient first("127.0.0.1", server.port());
    ServeClient second("127.0.0.1", server.port());
    first.ping();   // round trips guarantee both connections are
    second.ping();  // registered before the third arrives

    const std::size_t accepted_before = server.connections_accepted();
    ServeClient third("127.0.0.1", server.port());
    EXPECT_EQ(third.request("PING"), "ERR busy");
    EXPECT_THROW((void)third.request("PING"), fpm::Error);  // closed

    EXPECT_EQ(metrics.rejected.value(), rejected_before + 1);
    // Rejects are not accepts.
    EXPECT_EQ(server.connections_accepted(), accepted_before);
    EXPECT_EQ(server.open_connections(), 2U);

    // The admitted connections still work, and a freed slot is reusable.
    first.ping();
    EXPECT_EQ(second.request("QUIT"), "OK BYE");
    for (int attempt = 0;; ++attempt) {
        // The server notices second's hangup asynchronously.
        ServeClient retry("127.0.0.1", server.port());
        try {
            retry.ping();
            break;
        } catch (const fpm::Error&) {
            ASSERT_LT(attempt, 100) << "slot never freed";
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    }
    server.stop();
}

TEST(ServeReactor, MaxConnectionsRejectsWithBusy) {
    admission_budget_is_enforced(1);
}

TEST(ServeReactorPool, MaxConnectionsBudgetIsGlobalAcrossReactors) {
    admission_budget_is_enforced(4);
}

// ---------------------------------------------------------------------------
// Graceful drain: stop() lets an in-flight partition finish and flushes
// its response before closing the connection.
// ---------------------------------------------------------------------------
TEST(ServeReactor, GracefulDrainCompletesInFlightRequests) {
    ModelRegistry registry;
    // Expensive enough that stop() lands mid-compute.
    registry.put("big", synthetic_models(6, 600, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 8});
    SocketServer server(engine);
    server.start();

    const std::uint64_t requests_before = engine.stats().requests;
    std::string reply_line;
    std::thread client_thread([&]() {
        ServeClient client("127.0.0.1", server.port());
        client.send_lines({partition_line("big", 64, Algorithm::kFpm)});
        reply_line = client.read_replies(1)[0];
    });

    // Wait until the request is genuinely in flight on the engine.
    for (int i = 0; i < 500 && engine.stats().requests == requests_before;
         ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_GT(engine.stats().requests, requests_before)
        << "request never reached the engine";

    server.stop();  // drain: must flush the in-flight response first
    client_thread.join();

    const PartitionReply reply = parse_partition_reply(reply_line);
    EXPECT_EQ(reply.model, "big");
    EXPECT_EQ(reply.n, 64);
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.open_connections(), 0U);
}

// ---------------------------------------------------------------------------
// A dead peer mid-write is counted, not swallowed: the reactor's send
// path closes the connection and bumps serve.reactor.send_failures (or
// the peer's hangup is seen first and the connection is reaped — either
// way the reactor survives and the connection goes away).
// ---------------------------------------------------------------------------
TEST(ServeReactor, PeerHangupDoesNotWedgeTheReactor) {
    ModelRegistry registry;
    registry.put("big", synthetic_models(6, 600, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 8});
    SocketServer server(engine);
    server.start();

    {
        // Submit a slow partition, then vanish before the reply.
        ServeClient client("127.0.0.1", server.port());
        client.send_lines({partition_line("big", 72, Algorithm::kFpm)});
    }  // destructor closes the socket with the request still computing

    // The reactor must reap the connection and keep serving.
    for (int attempt = 0; server.open_connections() > 0 && attempt < 500;
         ++attempt) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(server.open_connections(), 0U);
    ServeClient survivor("127.0.0.1", server.port());
    survivor.ping();
    server.stop();
}

// ---------------------------------------------------------------------------
// Graceful drain under load across the pool: with requests in flight on
// several connections (the kernel spreads them over the reactors),
// stop() must flush every response before any connection closes.
// ---------------------------------------------------------------------------
TEST(ServeReactorPool, GracefulDrainCompletesInFlightOnEveryReactor) {
    ModelRegistry registry;
    registry.put("big", synthetic_models(6, 600, 1.0));
    RequestEngine engine(registry, {.workers = 4, .cache_capacity = 32});
    ServeConfig config;
    config.num_reactors = 4;
    SocketServer server(engine, config);
    server.start();

    constexpr std::size_t kClients = 8;
    const std::uint64_t requests_before = engine.stats().requests;
    std::vector<std::string> reply_lines(kClients);
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i]() {
            ServeClient client("127.0.0.1", server.port());
            // Distinct n per client: no cache hits, every request is its
            // own in-flight computation when stop() lands.
            client.send_lines({partition_line(
                "big", 48 + 8 * static_cast<std::int64_t>(i),
                Algorithm::kFpm)});
            reply_lines[i] = client.read_replies(1)[0];
        });
    }

    // Wait until every request is genuinely in flight on the engine.
    for (int i = 0;
         i < 1000 && engine.stats().requests < requests_before + kClients;
         ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_GE(engine.stats().requests, requests_before + kClients)
        << "requests never reached the engine";

    server.stop();  // must drain all reactors, not just one
    for (auto& thread : clients) {
        thread.join();
    }

    for (std::size_t i = 0; i < kClients; ++i) {
        const PartitionReply reply = parse_partition_reply(reply_lines[i]);
        EXPECT_EQ(reply.model, "big") << i;
        EXPECT_EQ(reply.n, 48 + 8 * static_cast<std::int64_t>(i)) << i;
    }
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.open_connections(), 0U);
}

// ---------------------------------------------------------------------------
// STATS aggregation invariants: the per-shard cache counters sum
// field-wise to the global ones, and the typed STATS reply reports the
// pool size and stripe count the server was configured with.
// ---------------------------------------------------------------------------
TEST(ServeReactorPool, StatsAggregationSumsShardsToGlobalCounters) {
    // Striping is keyed on the model-set fingerprint (all plans of one
    // set share a stripe so invalidation stays single-shard), so several
    // sets are needed to populate several stripes.
    ModelRegistry registry;
    const std::vector<std::string> sets = {"s0", "s1", "s2", "s3", "s4",
                                           "s5", "s6", "s7"};
    for (std::size_t i = 0; i < sets.size(); ++i) {
        registry.put(sets[i], synthetic_models(3, 64, 1.0 + 0.1 *
                                                          static_cast<double>(i)));
    }
    RequestEngine engine(registry, {.workers = 2,
                                    .cache_capacity = 64,
                                    .cache_shards = 4});
    ServeConfig config;
    config.num_reactors = 4;
    SocketServer server(engine, config);
    server.start();

    // Two passes over distinct requests: first misses, second hits,
    // spread over the stripes by the model-set fingerprints.
    ServeClient client("127.0.0.1", server.port());
    for (int pass = 0; pass < 2; ++pass) {
        std::vector<std::string> lines;
        for (const auto& set : sets) {
            for (std::int64_t n = 24; n <= 32; n += 4) {
                lines.push_back(partition_line(set, n, Algorithm::kFpm));
            }
        }
        const auto replies = client.pipeline(lines);
        for (const auto& reply : replies) {
            EXPECT_EQ(reply.rfind("OK PARTITION ", 0), 0U) << reply;
        }
    }

    const EngineStats engine_stats = engine.stats();
    ASSERT_EQ(engine_stats.cache_shards, 4U);
    ASSERT_EQ(engine_stats.cache_by_shard.size(), 4U);
    CacheStats sum;
    for (const CacheStats& shard : engine_stats.cache_by_shard) {
        sum.hits += shard.hits;
        sum.misses += shard.misses;
        sum.evictions += shard.evictions;
        sum.size += shard.size;
    }
    EXPECT_EQ(sum.hits, engine_stats.cache.hits);
    EXPECT_EQ(sum.misses, engine_stats.cache.misses);
    EXPECT_EQ(sum.evictions, engine_stats.cache.evictions);
    EXPECT_EQ(sum.size, engine_stats.cache.size);
    EXPECT_GT(engine_stats.cache.hits, 0U);    // second pass hit
    EXPECT_GT(engine_stats.cache.misses, 0U);  // first pass missed
    // 8 distinct set fingerprints over 4 stripes: more than one used.
    std::size_t populated = 0;
    for (const CacheStats& shard : engine_stats.cache_by_shard) {
        populated += shard.size > 0 ? 1 : 0;
    }
    EXPECT_GE(populated, 2U);

    // The same invariants through the wire, typed.
    const ServerStats stats = client.stats();
    EXPECT_EQ(stats.reactors, 4U);
    EXPECT_EQ(stats.cache_shards, 4U);
    EXPECT_EQ(stats.hits, engine_stats.cache.hits);
    EXPECT_EQ(stats.misses, engine_stats.cache.misses);
    EXPECT_EQ(stats.cache_size, engine_stats.cache.size);
    EXPECT_TRUE(stats.extras.empty()) << stats.extras.begin()->first;

    server.stop();
}

// ---------------------------------------------------------------------------
// The reactors gauge is process-wide: it sums the pools of every running
// server, so stopping one server leaves the others counted.
// ---------------------------------------------------------------------------
TEST(ServeReactorPool, ReactorsGaugeCountsEveryRunningServer) {
    ModelRegistry registry;
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 8});
    ServeConfig one;
    one.num_reactors = 1;
    SocketServer first(engine, one);
    first.start();
    ServeConfig two;
    two.num_reactors = 2;
    SocketServer second(engine, two);
    second.start();

    ServeClient client("127.0.0.1", first.port());
    EXPECT_EQ(client.stats().reactors, 3U);
    second.stop();
    EXPECT_EQ(client.stats().reactors, 1U);
    first.stop();
}

// ---------------------------------------------------------------------------
// One request at a time per connection: the reactor takes a line only
// once the previous reply is queued, so pipelined requests execute in
// arrival order and each sees every earlier one's effects.
// ---------------------------------------------------------------------------

TEST(ServeReactor, PipelinedFeedbackRunsInRequestOrder) {
    FaultGuard guard;
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(2, 16, 1.0));
    RequestEngine engine(registry, {.workers = 4, .cache_capacity = 8});
    adapt::AdaptConfig config;
    config.min_samples = 64;  // the bucket never turns reliable here,
    config.max_samples = 64;  // so its count only grows
    adapt::AdaptEngine adapter(engine, config);
    SocketServer server(engine);
    server.start();

    // Half the pool's dispatches stall 1 ms, so requests that were
    // allowed to overlap would finish out of order.
    fault::install(fault::FaultPlan::parse("seed=7,rt.dispatch=0.5:delay:1"));
    ServeClient client("127.0.0.1", server.port());
    const std::vector<std::string> lines(32, "FEEDBACK hybrid 0 1000 2.5");
    const auto replies = client.pipeline(lines);
    fault::uninstall();
    ASSERT_EQ(replies.size(), lines.size());
    for (std::size_t i = 0; i < replies.size(); ++i) {
        const Response response = Response::decode(replies[i]);
        ASSERT_EQ(response.kind, Response::Kind::kFeedback) << replies[i];
        EXPECT_EQ(response.feedback.samples, i + 1) << replies[i];
    }
    server.stop();
}

TEST(ServeReactor, PipelinedLoadRunsAfterAnEarlierPartition) {
    FaultGuard guard;
    ModelRegistry registry;
    registry.put("other", synthetic_models(3, 64, 1.0));
    const auto g = registry.put("g", bounded_models(3, 1000.0));
    const std::string csv = ::testing::TempDir() + "fpmpart_reactor_g300.csv";
    core::save_speed_functions_csv(csv, bounded_models(3, 300.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 8});
    SocketServer server(engine);
    server.start();

    // Every compute stalls 100 ms on the single worker, so a LOAD run
    // ahead of its turn would land while both misses still wait.
    fault::install(fault::FaultPlan::parse("serve.compute=1:delay:100"));
    ServeClient client("127.0.0.1", server.port());
    const auto replies = client.pipeline({
        partition_line("other", 24, Algorithm::kFpm),
        "PARTITION g 40 fpm",  // 1600 blocks: three 1000-block devices
        "LOAD g " + csv,       // three 300-block devices
        "PARTITION g 40 fpm",
    });
    fault::uninstall();
    ASSERT_EQ(replies.size(), 4U);
    EXPECT_EQ(parse_partition_reply(replies[0]).model, "other");

    // The earlier request is answered from the generation it was sent
    // against...
    const PartitionReply before = parse_partition_reply(replies[1]);
    EXPECT_EQ(before.generation, g->generation);
    EXPECT_FALSE(before.degraded);
    EXPECT_EQ(before.blocks,
              RequestEngine::compute_plan(*g, 40, Algorithm::kFpm, true)
                  .blocks);
    const Response loaded = Response::decode(replies[2]);
    ASSERT_EQ(loaded.kind, Response::Kind::kLoaded) << replies[2];
    EXPECT_GT(loaded.loaded.generation, g->generation);
    // ...and the later one sees the reload.
    EXPECT_EQ(replies[3],
              "ERR internal combined device capacity cannot hold the "
              "requested workload");
    server.stop();
}

TEST(ServeReactor, ClientThatStopsReadingIsBoundedAndEvicted) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(3, 64, 1.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 8});
    ServeConfig config;
    config.idle_timeout = 0.3;
    SocketServer server(engine, config);
    server.start();
    const std::string line = partition_line("hybrid", 52, Algorithm::kFpm);
    {
        ServeClient warm("127.0.0.1", server.port());
        EXPECT_FALSE(parse_partition_reply(warm.request(line)).cached);
    }
    const ReactorMetrics& metrics = ReactorMetrics::get();
    const std::uint64_t evictions_before = metrics.idle_timeouts.value();

    // The flooder writes the cached line for up to 1 s and never reads
    // a reply.  It stops at 4 MiB, so a reactor that buffers everything
    // fails here without exhausting memory.
    constexpr std::size_t kFloodCap = 4U << 20;
    std::string block;
    while (block.size() < 64 * 1024) {
        block += line + "\n";
    }
    const int fd = raw_connect(server.port());
    ASSERT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK), 0);
    std::thread flooder([&] {
        measure::WallTimer timer;
        std::size_t sent = 0;
        while (sent < kFloodCap && timer.elapsed() < 1.0) {
            const std::size_t offset = sent % block.size();
            const ssize_t n = ::send(fd, block.data() + offset,
                                     block.size() - offset, MSG_NOSIGNAL);
            if (n > 0) {
                sent += static_cast<std::size_t>(n);
            } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            } else {
                break;  // evicted
            }
        }
    });

    // A second connection is answered promptly, and the flooder's
    // buffers stay within the per-connection bounds.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    measure::WallTimer timer;
    try {
        ServeConfig probe_config;
        probe_config.recv_timeout = 1.0;
        ServeClient probe("127.0.0.1", server.port(), probe_config);
        const ServerStats stats = probe.stats();
        EXPECT_LT(timer.elapsed(), 1.0);
        EXPECT_LE(stats.buffered_bytes,
                  static_cast<std::int64_t>(2 * kMaxLineBytes + 64 * 1024));
    } catch (const fpm::Error& e) {
        ADD_FAILURE() << "STATS during the flood: " << e.what();
    }
    flooder.join();

    // With nothing in flight and nothing read or queued for idle_timeout,
    // the flooder is evicted.
    for (int i = 0; i < 300 && server.open_connections() > 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(server.open_connections(), 0U);
    EXPECT_EQ(metrics.idle_timeouts.value(), evictions_before + 1);
    ::close(fd);
    server.stop();
}

/// FEEDBACK lines for the two devices of `models`: samples cycle over
/// three sizes, device 0 runs at half its modelled speed from the 40th
/// line on, and every time carries a fixed pattern of +-2 % noise.
std::vector<std::string> drifting_feedback(
    const std::vector<SpeedFunction>& models, std::size_t count) {
    const double sizes[] = {800.0, 1600.0, 3200.0};
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < count; ++i) {
        Request request;
        request.kind = Request::Kind::kFeedback;
        request.feedback.model_set = "hybrid";
        request.feedback.device = static_cast<std::int64_t>(i % 2);
        const double x = sizes[(i / 2) % 3];
        const double slowdown = (i % 2 == 0 && i >= 40) ? 0.5 : 1.0;
        const double noise =
            1.0 + 0.004 * (static_cast<double>((i * 37) % 11) - 5.0);
        request.feedback.problem_size = x;
        request.feedback.seconds =
            x / (models[i % 2].speed(x) * slowdown) * noise;
        lines.push_back(request.encode());
    }
    return lines;
}

/// Replays `lines` against a fresh registry, 4-worker engine, adapter
/// and server, `batch` lines per pipelined write; returns every reply.
std::vector<std::string> replay_feedback(
    const std::vector<SpeedFunction>& models,
    const std::vector<std::string>& lines, std::size_t batch) {
    ModelRegistry registry;
    registry.put("hybrid", models);
    RequestEngine engine(registry, {.workers = 4, .cache_capacity = 8});
    adapt::AdaptConfig config;
    config.min_samples = 2;
    config.drift_threshold = 0.05;
    config.cusum_limit = 0.1;
    adapt::AdaptEngine adapter(engine, config);
    SocketServer server(engine);
    server.start();
    ServeClient client("127.0.0.1", server.port());
    std::vector<std::string> replies;
    for (std::size_t i = 0; i < lines.size(); i += batch) {
        const std::vector<std::string> group(
            lines.begin() + static_cast<std::ptrdiff_t>(i),
            lines.begin() +
                static_cast<std::ptrdiff_t>(std::min(i + batch, lines.size())));
        for (std::string& reply : client.pipeline(group)) {
            replies.push_back(std::move(reply));
        }
    }
    server.stop();
    return replies;
}

TEST(ServeReactor, PipelinedFeedbackReplayMatchesSerialReplay) {
    const auto models = synthetic_models(2, 16, 1.0);
    const auto lines = drifting_feedback(models, 120);
    const auto pipelined = replay_feedback(models, lines, 32);
    const auto serial = replay_feedback(models, lines, 1);
    ASSERT_EQ(pipelined.size(), lines.size());
    EXPECT_EQ(pipelined, serial);
    // The trace exercises the whole loop: windows turn reliable and the
    // drift republishes the set.
    const auto flagged = [&](const char* token) {
        return std::count_if(serial.begin(), serial.end(),
                             [&](const std::string& reply) {
                                 return reply.find(token) != std::string::npos;
                             });
    };
    EXPECT_GT(flagged("reliable=1"), 0);
    EXPECT_GT(flagged("republished=1"), 0);
}

TEST(ServeReactor, HalfClosedBatchGetsEveryReplyThenEof) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(3, 64, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 8});
    SocketServer server(engine);
    server.start();

    const int fd = raw_connect(server.port());
    send_all(fd, "PING\n" + partition_line("hybrid", 32, Algorithm::kFpm) +
                     "\nBOGUS\n" +
                     partition_line("hybrid", 32, Algorithm::kFpm) +
                     "\nFEEDBACK hybrid 0 1000 2.5\nMODELS\n" +
                     partition_line("hybrid", 40, Algorithm::kCpm) +
                     "\nHEALTH\n");
    ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
    const auto replies = read_lines_to_eof(fd);
    ::close(fd);
    ASSERT_EQ(replies.size(), 8U);
    EXPECT_EQ(replies[0], "OK PONG v" + std::to_string(kProtocolVersion));
    EXPECT_FALSE(parse_partition_reply(replies[1]).cached);
    EXPECT_EQ(replies[2], "ERR unsupported_verb unknown command: BOGUS");
    EXPECT_TRUE(parse_partition_reply(replies[3]).cached);
    EXPECT_EQ(replies[4].rfind("ERR feedback_disabled", 0), 0U) << replies[4];
    EXPECT_EQ(replies[5].rfind("OK MODELS ", 0), 0U) << replies[5];
    EXPECT_EQ(parse_partition_reply(replies[6]).algorithm, Algorithm::kCpm);
    EXPECT_EQ(replies[7].rfind("OK HEALTH ", 0), 0U) << replies[7];
    server.stop();
}

/// Writes `lines` STATS requests in one write to a fresh connection and
/// returns every reply: `lines` of them, or all up to the server's EOF
/// after a half-close.  One pass of inline replies outgrows
/// kMaxLineBytes, so the reactor stops taking lines at the full write
/// buffer and must take the rest once it drained, however much of it
/// the kernel absorbed in one send.
std::vector<std::string> stats_batch(std::size_t lines, bool half_close) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(3, 64, 1.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 8});
    SocketServer server(engine);
    server.start();
    std::string batch;
    for (std::size_t i = 0; i < lines; ++i) {
        batch += "STATS\n";
    }
    const int fd = raw_connect(server.port());
    send_all(fd, batch);
    std::vector<std::string> replies;
    if (half_close) {
        EXPECT_EQ(::shutdown(fd, SHUT_WR), 0);
        replies = read_lines_to_eof(fd);
        ::close(fd);
    } else {
        LineConn conn(fd, 5.0);  // owns and closes fd
        try {
            while (replies.size() < lines) {
                replies.push_back(conn.read_line(kMaxLineBytes));
            }
        } catch (const TransportError& e) {
            ADD_FAILURE() << "after " << replies.size() << " replies: "
                          << e.what();
        }
    }
    server.stop();
    std::size_t bytes = 0;
    for (const std::string& reply : replies) {
        EXPECT_EQ(reply.rfind("OK STATS ", 0), 0U) << reply;
        bytes += reply.size() + 1;
    }
    EXPECT_GT(bytes, 2 * kMaxLineBytes);  // the bound was genuinely hit
    return replies;
}

TEST(ServeReactor, RepliesPastTheOutputBoundAreAnsweredInFull) {
    EXPECT_EQ(stats_batch(3000, false).size(), 3000U);
}

TEST(ServeReactor, HalfClosedBatchPastTheOutputBoundGetsEveryReplyThenEof) {
    EXPECT_EQ(stats_batch(3000, true).size(), 3000U);
}

// ServeClient::pipeline() reads while it writes, so a batch whose replies
// and requests both outgrow the socket buffers and the server's output
// bound completes instead of blocking in send().
TEST(ServeReactor, PipelineOfABatchPastTheOutputBoundCompletes) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(3, 64, 1.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 8});
    SocketServer server(engine);
    server.start();
    constexpr std::size_t kStats = 8000;  // ~6.6 MB of replies
    constexpr std::size_t kJunk = 200;    // 12.5 MiB of requests
    std::vector<std::string> lines(kStats, "STATS");
    lines.insert(lines.end(), kJunk, "BOGUS " + std::string(64 * 1024, 'x'));
    ServeClient client("127.0.0.1", server.port());
    const auto replies = client.pipeline(lines);
    ASSERT_EQ(replies.size(), lines.size());
    for (std::size_t i = 0; i < kStats; ++i) {
        ASSERT_EQ(replies[i].rfind("OK STATS ", 0), 0U) << i;
    }
    for (std::size_t i = kStats; i < replies.size(); ++i) {
        ASSERT_EQ(replies[i], "ERR unsupported_verb unknown command: BOGUS")
            << i;
    }
    server.stop();
}

/// Sends `pieces` one write at a time, a millisecond apart so the
/// reactor tends to read them separately, to a fresh server; then
/// half-closes and returns every reply up to the server's EOF.
std::vector<std::string> exchange_pieces(
    const std::vector<std::string>& pieces) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(3, 64, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 8});
    SocketServer server(engine);
    server.start();
    const int fd = raw_connect(server.port());
    for (const std::string& piece : pieces) {
        send_all(fd, piece);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::shutdown(fd, SHUT_WR);
    auto replies = read_lines_to_eof(fd);
    ::close(fd);
    server.stop();
    return replies;
}

TEST(ServeReactor, SeededSplitsOfHostileInputAnswerLikeOneWrite) {
    const std::string batch =
        "PING\r\n"
        "PARTITION hybrid 32 fpm\r\n"
        "\r\n"
        "PARTITION hybrid 32 fpm\n"
        "BOGUS\r\n"
        "\n"
        "PARTITION hybrid 40 cpm nolayout\r\n"
        "PARTITION nosuch 32 fpm\n"
        "\r\n"
        "PING\n";
    const auto reference = exchange_pieces({batch});
    ASSERT_EQ(reference.size(), 7U);
    EXPECT_EQ(reference[0], "OK PONG v" + std::to_string(kProtocolVersion));
    EXPECT_FALSE(parse_partition_reply(reference[1]).cached);
    EXPECT_TRUE(parse_partition_reply(reference[2]).cached);
    EXPECT_EQ(reference[3], "ERR unsupported_verb unknown command: BOGUS");
    EXPECT_TRUE(parse_partition_reply(reference[4]).rects.empty());
    EXPECT_EQ(reference[5].rfind("ERR bad_request unknown model set", 0), 0U)
        << reference[5];
    EXPECT_EQ(reference[6], reference[0]);

    std::vector<std::size_t> crlf;  // offsets of the '\n' of each "\r\n"
    for (std::size_t i = 1; i < batch.size(); ++i) {
        if (batch[i] == '\n' && batch[i - 1] == '\r') {
            crlf.push_back(i);
        }
    }
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        std::mt19937_64 rng(seed);
        std::uniform_int_distribution<std::size_t> offset(1, batch.size() - 1);
        // One cut inside a random "\r\n", then up to 12 anywhere.
        std::vector<std::size_t> cuts = {crlf[rng() % crlf.size()]};
        for (std::size_t i = rng() % 13; i > 0; --i) {
            cuts.push_back(offset(rng));
        }
        std::sort(cuts.begin(), cuts.end());
        cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
        std::vector<std::string> pieces;
        std::size_t head = 0;
        for (const std::size_t cut : cuts) {
            pieces.push_back(batch.substr(head, cut - head));
            head = cut;
        }
        pieces.push_back(batch.substr(head));
        EXPECT_EQ(exchange_pieces(pieces), reference) << "seed " << seed;
    }

    // A final unterminated line one byte over the bound is refused and
    // the connection closed.
    const auto refused =
        exchange_pieces({"PING\n", std::string(kMaxLineBytes + 1, 'x')});
    ASSERT_EQ(refused.size(), 2U);
    EXPECT_EQ(refused[0], reference[0]);
    EXPECT_EQ(refused[1], "ERR bad_request request line too long");
}

} // namespace
} // namespace fpm::serve
