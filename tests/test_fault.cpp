// fpm::fault chaos suite: spec parsing and deterministic replay of the
// injection layer, degraded-mode serving (the even-split fallback of a
// failed compute), client retry/backoff (a FEEDBACK is never re-sent after a
// transport error) + typed transport errors, the HEALTH endpoint, and
// the headline chaos test — randomized fault schedules against the
// pipelined reactor harness where every request must succeed
// bit-for-bit, come back as a well-formed degraded plan, or fail
// cleanly.  No hangs, no torn replies — at one reactor
// and across the 4-reactor SO_REUSEPORT pool with a sharded plan cache.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fpm/adapt/engine.hpp"
#include "fpm/core/model_io.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/measure/timer.hpp"
#include "fpm/serve/client.hpp"
#include "fpm/serve/model_registry.hpp"
#include "fpm/serve/protocol.hpp"
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
                            "dev" + std::to_string(d) + "f" +
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

/// Uninstalls any leftover plan when a test exits (failure included).
struct FaultGuard {
    ~FaultGuard() { fault::uninstall(); }
};

std::uint64_t point_evaluated(const std::string& name) {
    return fault::point(name).evaluated();
}

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

TEST(FaultPlanParse, AcceptsTheDocumentedGrammar) {
    const auto plan = fault::FaultPlan::parse(
        "seed=42,a.b=0.5,c=0.1:fail,d=0.25:delay:250,,");
    EXPECT_EQ(plan.seed, 42u);
    ASSERT_EQ(plan.rules.size(), 3u);
    EXPECT_EQ(plan.rules[0].point, "a.b");
    EXPECT_DOUBLE_EQ(plan.rules[0].rate, 0.5);
    EXPECT_EQ(plan.rules[0].action, fault::Action::kFail);
    EXPECT_EQ(plan.rules[1].action, fault::Action::kFail);
    EXPECT_EQ(plan.rules[2].action, fault::Action::kDelay);
    EXPECT_EQ(plan.rules[2].delay_ms, 250u);

    EXPECT_TRUE(fault::FaultPlan::parse("").rules.empty());
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
    const std::vector<std::string> bad = {
        "a",                      // no '='
        "=0.5",                   // empty point name
        "a=",                     // empty rate
        "a=2",                    // rate > 1
        "a=-0.1",                 // rate < 0
        "a=x",                    // non-numeric rate
        "a=0.5:wat",              // unknown action
        "a=0.5:delay",            // delay without ms
        "a=0.5:delay:",           // empty ms
        "a=0.5:delay:12x",        // non-numeric ms
        "a=0.5:delay:99999999",   // > 60 s
        "seed=abc",               // non-numeric seed
    };
    for (const std::string& spec : bad) {
        EXPECT_THROW((void)fault::FaultPlan::parse(spec), fpm::Error)
            << "accepted: " << spec;
    }
}

// ---------------------------------------------------------------------------
// Deterministic replay + disabled behaviour
// ---------------------------------------------------------------------------

TEST(FaultPoint, SameSeedReplaysTheSameSchedule) {
    FaultGuard guard;
    const auto plan = fault::FaultPlan::parse("seed=7,unit.replay=0.3");
    auto& point = fault::point("unit.replay");

    fault::install(plan);
    ASSERT_TRUE(fault::enabled());
    std::vector<bool> first;
    int fired = 0;
    for (int i = 0; i < 200; ++i) {
        const bool hit = static_cast<bool>(point.fire());
        first.push_back(hit);
        fired += hit ? 1 : 0;
    }
    // Rate 0.3 over 200 draws: far from degenerate in either direction.
    EXPECT_GT(fired, 30);
    EXPECT_LT(fired, 90);

    fault::install(plan);  // resets arrival counters -> identical replay
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(static_cast<bool>(point.fire()), first[i]) << i;
    }

    // A different seed produces a different schedule.
    fault::install(fault::FaultPlan::parse("seed=8,unit.replay=0.3"));
    bool any_difference = false;
    for (int i = 0; i < 200; ++i) {
        any_difference |= static_cast<bool>(point.fire()) != first[i];
    }
    EXPECT_TRUE(any_difference);
}

TEST(FaultPoint, DisarmedFiresNothingAndCountsNothing) {
    fault::uninstall();
    auto& point = fault::point("unit.disarmed");
    const std::uint64_t evaluated_before = point.evaluated();
    for (int i = 0; i < 100; ++i) {
        const fault::Decision decision = point.fire();
        EXPECT_FALSE(static_cast<bool>(decision));
        EXPECT_EQ(decision.action, fault::Action::kNone);
    }
    EXPECT_EQ(point.evaluated(), evaluated_before);
    EXPECT_FALSE(fault::enabled());
}

TEST(FaultPoint, DelayActionSleepsInsideFire) {
    FaultGuard guard;
    fault::install(fault::FaultPlan::parse("unit.delay=1:delay:50"));
    auto& point = fault::point("unit.delay");
    measure::WallTimer timer;
    const fault::Decision decision = point.fire();
    const double elapsed = timer.elapsed();
    EXPECT_EQ(decision.action, fault::Action::kDelay);
    EXPECT_FALSE(static_cast<bool>(decision));  // delay is not a failure
    EXPECT_GE(elapsed, 0.040);
    EXPECT_GT(point.injected(), 0u);
}

TEST(FaultPoint, StatsReportConfiguredPoints) {
    FaultGuard guard;
    fault::install(fault::FaultPlan::parse("unit.stats=0.5"));
    (void)fault::point("unit.stats").fire();
    bool found = false;
    for (const auto& stats : fault::stats()) {
        if (stats.name == "unit.stats") {
            found = true;
            EXPECT_DOUBLE_EQ(stats.rate, 0.5);
            EXPECT_GT(stats.evaluated, 0u);
        }
    }
    EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Degraded-mode serving
// ---------------------------------------------------------------------------

TEST(FaultDegraded, ComputeFailureServesTheCurrentGenerationsEvenSplit) {
    FaultGuard guard;
    ModelRegistry registry;
    const auto v1 = registry.put("hybrid", synthetic_models(3, 64, 1.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 16});
    const PartitionRequest request{"hybrid", 40, Algorithm::kFpm, true};
    const PartitionReply warm =
        parse_partition_reply(handle_line(engine, "PARTITION hybrid 40 fpm"));
    ASSERT_FALSE(warm.degraded);
    ASSERT_EQ(warm.generation, v1->generation);

    // Reload with different content (fingerprint changes, plan cache
    // misses) and make every compute fail: the answer is the even split
    // of the *reloaded* set, never the plan of the previous generation.
    const auto v2 = registry.put("hybrid", synthetic_models(3, 64, 1.4));
    fault::install(fault::FaultPlan::parse("serve.compute=1"));
    const PartitionReply degraded =
        parse_partition_reply(handle_line(engine, "PARTITION hybrid 40 fpm"));
    EXPECT_TRUE(degraded.degraded);
    EXPECT_EQ(degraded.generation, v2->generation);
    EXPECT_EQ(degraded.algorithm, Algorithm::kEven);
    const PartitionPlan even =
        RequestEngine::compute_plan(*v2, 40, Algorithm::kEven, true);
    EXPECT_EQ(degraded.blocks, even.blocks);
    EXPECT_EQ(degraded.makespan, even.makespan);
    EXPECT_EQ(engine.stats().degraded, 1u);

    // Back to normal: the fallback was never cached, so the next request
    // computes the exact plan of the current content.
    fault::uninstall();
    const PartitionResponse fresh = engine.execute(request);
    EXPECT_FALSE(fresh.degraded);
    EXPECT_FALSE(fresh.cache_hit);
    EXPECT_EQ(fresh.plan->generation, v2->generation);
    EXPECT_EQ(fresh.plan->blocks,
              RequestEngine::compute_plan(*v2, 40, Algorithm::kFpm, true)
                  .blocks);
}

TEST(FaultDegraded, UnknownModelSetStillFailsCleanly) {
    ModelRegistry registry;
    registry.put("known", synthetic_models(2, 16, 1.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 8});
    try {
        (void)engine.execute(PartitionRequest{"missing", 10, Algorithm::kFpm,
                                              true});
        FAIL() << "expected fpm::Error";
    } catch (const fpm::Error& e) {
        EXPECT_NE(std::string(e.what()).find("unknown model set"),
                  std::string::npos);
    }
    const std::string reply = handle_line(engine, "PARTITION missing 10 fpm");
    EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply;
}

TEST(FaultDegraded, RegistryReloadFaultLeavesOldSnapshot) {
    FaultGuard guard;
    ModelRegistry registry;
    const auto v1 = registry.put("hybrid", synthetic_models(2, 16, 1.0));
    fault::install(fault::FaultPlan::parse("serve.reload=1"));
    EXPECT_THROW((void)registry.put("hybrid", synthetic_models(2, 16, 2.0)),
                 fpm::Error);
    EXPECT_EQ(registry.get("hybrid")->generation, v1->generation);
    EXPECT_GT(point_evaluated("serve.reload"), 0u);
    fault::uninstall();
    EXPECT_GT(registry.put("hybrid", synthetic_models(2, 16, 2.0))->generation,
              v1->generation);
}

// ---------------------------------------------------------------------------
// HEALTH endpoint
// ---------------------------------------------------------------------------

TEST(FaultHealth, ReportsReadinessAndCounters) {
    ModelRegistry registry;
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 8});

    // Not ready while the registry is empty.
    const Response reply = Response::decode(handle_line(engine, "HEALTH"));
    ASSERT_EQ(reply.kind, Response::Kind::kHealth);
    const ServerHealth empty = ServerHealth::from_fields(reply.fields);
    EXPECT_TRUE(empty.live);
    EXPECT_FALSE(empty.ready);
    EXPECT_EQ(empty.models, 0u);

    registry.put("hybrid", synthetic_models(2, 16, 1.0));
    SocketServer server(engine);
    server.start();
    ServeClient client("127.0.0.1", server.port());
    const ServerHealth health = client.health();
    EXPECT_TRUE(health.live);
    EXPECT_TRUE(health.ready);
    EXPECT_EQ(health.models, 1u);
    server.stop();
}

// ---------------------------------------------------------------------------
// Client transport errors: each failure has its own kind
// ---------------------------------------------------------------------------

namespace {

/// Minimal scripted server: accepts one connection, waits for any bytes,
/// writes `reply` verbatim and closes — with a TCP reset instead of a
/// clean FIN when `reset` is set.
class ScriptedServer {
public:
    ScriptedServer(std::string reply, bool reset)
        : reply_(std::move(reply)), reset_(reset) {
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof addr),
                  0);
        EXPECT_EQ(::listen(listen_fd_, 1), 0);
        socklen_t len = sizeof addr;
        EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                                &len),
                  0);
        port_ = ntohs(addr.sin_port);
        thread_ = std::thread([this]() {
            const int fd = ::accept(listen_fd_, nullptr, nullptr);
            if (fd < 0) {
                return;
            }
            char buffer[256];
            (void)::recv(fd, buffer, sizeof buffer, 0);
            if (!reply_.empty()) {
                (void)::send(fd, reply_.data(), reply_.size(), MSG_NOSIGNAL);
            }
            if (reset_) {
                const linger hard{1, 0};  // close() sends RST
                ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof hard);
            }
            ::close(fd);
        });
    }

    ~ScriptedServer() {
        thread_.join();
        ::close(listen_fd_);
    }

    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

private:
    std::string reply_;
    bool reset_;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::thread thread_;
};

} // namespace

TEST(FaultClient, CleanCloseAndTruncationAreDistinctErrors) {
    using Kind = TransportError::Kind;
    const struct {
        std::string reply;
        bool reset;
        Kind kind;
        const char* detail;
    } cases[] = {
        // close without any reply bytes
        {"", false, Kind::kPeerClosed, "closed the connection"},
        // bytes but no newline, then close
        {"OK PONG v3", false, Kind::kTruncated, "mid-reply"},
        // an unterminated reply one byte over the line bound
        {std::string(kMaxLineBytes + 1, 'x'), false, Kind::kTooLong,
         "exceeds"},
        // the server resets the connection instead of answering
        {"", true, Kind::kRecv, "recv()"},
    };
    for (const auto& c : cases) {
        ScriptedServer server(c.reply, c.reset);
        ServeClient client("127.0.0.1", server.port());
        try {
            (void)client.request("PING");
            ADD_FAILURE() << "expected TransportError for " << c.detail;
        } catch (const TransportError& e) {
            EXPECT_EQ(e.kind(), c.kind) << e.what();
            EXPECT_NE(std::string(e.what()).find(c.detail),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(FaultClient, RetriesThroughBusyRejections) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(2, 16, 1.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 8});
    ServeConfig config;
    config.max_connections = 1;
    SocketServer server(engine, config);
    server.start();

    auto occupant =
        std::make_unique<ServeClient>("127.0.0.1", server.port());
    occupant->ping();  // the only admission slot is now taken

    ServeConfig retrying = config;
    retrying.max_retries = 20;
    retrying.backoff_base = 0.02;
    retrying.backoff_max = 0.05;
    ServeClient patient("127.0.0.1", server.port(), retrying);

    // Free the slot while the patient client is backing off.
    std::thread release([&]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        occupant.reset();
    });
    Request ping;  // kPing default
    const Response response = patient.call(ping);
    release.join();
    EXPECT_EQ(response.kind, Response::Kind::kPong);

    server.stop();
}

/// Installs the first plan, by seed, whose serve.send schedule at rate
/// 0.5 drops the server's first reply and lets the second through.
void install_drop_first_reply() {
    for (std::uint64_t seed = 1;; ++seed) {
        std::string spec = "serve.send=0.5,seed=";
        spec += std::to_string(seed);
        const auto plan = fault::FaultPlan::parse(spec);
        fault::install(plan);
        auto& send = fault::point("serve.send");
        const bool first = static_cast<bool>(send.fire());
        if (first && !send.fire()) {
            fault::install(plan);  // rewinds the schedule
            return;
        }
    }
}

TEST(FaultClient, FeedbackIsNotResentAfterATransportError) {
    FaultGuard guard;
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(2, 16, 1.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 8});
    adapt::AdaptEngine adapter(engine, adapt::AdaptConfig{});
    SocketServer server(engine);
    server.start();
    ServeConfig retrying;
    retrying.max_retries = 2;
    retrying.backoff_base = 0.01;

    // The sample is ingested and its reply lost: a re-send would ingest
    // it a second time, so the transport error reaches the caller.
    // (AdaptStats::samples is process-wide, hence the difference.)
    const std::uint64_t samples = adapter.stats().samples;
    install_drop_first_reply();
    {
        ServeClient client("127.0.0.1", server.port(), retrying);
        EXPECT_THROW((void)client.report_feedback({"hybrid", 0, 1000.0, 2.0}),
                     TransportError);
    }
    EXPECT_EQ(adapter.stats().samples, samples + 1);

    // A PARTITION under the same schedule is re-sent and succeeds.
    install_drop_first_reply();
    const std::uint64_t dropped = fault::point("serve.send").injected();
    ServeClient client("127.0.0.1", server.port(), retrying);
    EXPECT_EQ(client.partition({"hybrid", 24, Algorithm::kFpm, true}).n, 24);
    EXPECT_EQ(fault::point("serve.send").injected(), dropped + 1);
    server.stop();
}

// ---------------------------------------------------------------------------
// The chaos test: every injection point armed against the pipelined
// 16-client harness, >= 10k requests, and every single one must either
// match the direct library call bit-for-bit (a LOAD: reload the same
// content), be a well-formed degraded plan, or fail cleanly with a
// typed error.  Zero torn replies.
// ---------------------------------------------------------------------------

void chaos_pipelined_requests(std::size_t num_reactors,
                              std::size_t cache_shards) {
    FaultGuard guard;
    ModelRegistry registry;
    const auto alpha = registry.put("alpha", synthetic_models(4, 96, 1.0));
    RequestEngine engine(registry, {.workers = 4,
                                    .cache_capacity = 256,
                                    .cache_shards = cache_shards});
    ServeConfig server_config;
    server_config.num_reactors = num_reactors;
    SocketServer server(engine, server_config);
    server.start();

    const std::int64_t ns[] = {24, 30, 36, 42};
    const Algorithm algorithms[] = {Algorithm::kFpm, Algorithm::kCpm,
                                    Algorithm::kEven};

    // Every eighth line reloads alpha from its own CSV.  A LOAD runs on
    // the engine pool, so the schedule reaches rt.dispatch (a PARTITION
    // computes on its reactor), and the content, hence the fingerprint
    // and every direct plan below, stays the same.
    const std::string csv = ::testing::TempDir() + "fpmpart_chaos_alpha_" +
                            std::to_string(num_reactors) + ".csv";
    core::save_speed_functions_csv(csv, alpha->models);
    ASSERT_EQ(fingerprint_models(core::load_speed_functions_csv(csv)),
              alpha->fingerprint);
    const std::string load_line = "LOAD alpha " + csv;

    // Direct library answers for every (n, algorithm) in the mix.  A
    // degraded reply reports the algorithm that actually produced it
    // (kEven, the fallback's), so every well-formed reply — degraded or
    // not — must match one of these.
    std::map<std::pair<std::int64_t, int>, PartitionPlan> direct;
    for (const std::int64_t n : ns) {
        for (const Algorithm algorithm : algorithms) {
            direct.emplace(
                std::make_pair(n, static_cast<int>(algorithm)),
                RequestEngine::compute_plan(*alpha, n, algorithm, true));
        }
    }

    const char* kPoints[] = {"serve.accept", "serve.recv", "serve.send",
                             "serve.cache",  "serve.compute", "rt.dispatch"};
    std::map<std::string, std::uint64_t> evaluated_before;
    for (const char* name : kPoints) {
        evaluated_before[name] = point_evaluated(name);
    }

    fault::install(fault::FaultPlan::parse(
        "seed=1234,serve.accept=0.01,serve.recv=0.015,serve.send=0.015,"
        "serve.cache=0.05,serve.compute=0.2,rt.dispatch=0.02"));

    constexpr std::size_t kClients = 16;
    constexpr std::size_t kBatches = 40;
    constexpr std::size_t kBatchSize = 16;  // 16 * 40 * 16 = 10240 requests

    std::atomic<std::uint64_t> ok_exact{0};
    std::atomic<std::uint64_t> ok_degraded{0};
    std::atomic<std::uint64_t> clean_errors{0};   // ERR lines, lost batches
    std::atomic<std::uint64_t> torn_replies{0};   // must stay zero

    // Validates one reply line for (n, algorithm), or for the LOAD when
    // n is 0; bumps the counters.
    const auto validate = [&](const std::string& line, std::int64_t n) {
        Response response;
        try {
            response = Response::decode(line);
        } catch (const fpm::Error&) {
            torn_replies.fetch_add(1);
            return;
        }
        if (response.kind == Response::Kind::kError) {
            clean_errors.fetch_add(1);
            EXPECT_FALSE(response.error.empty());
            return;
        }
        if (n == 0) {
            const bool reloaded = response.kind == Response::Kind::kLoaded &&
                                  response.loaded.name == "alpha" &&
                                  response.loaded.fingerprint ==
                                      alpha->fingerprint;
            (reloaded ? ok_exact : torn_replies).fetch_add(1);
            return;
        }
        if (response.kind != Response::Kind::kPartition) {
            torn_replies.fetch_add(1);
            return;
        }
        const PartitionReply& reply = response.partition;
        const auto it = direct.find(
            std::make_pair(n, static_cast<int>(reply.algorithm)));
        if (it == direct.end() || reply.n != n) {
            torn_replies.fetch_add(1);
            return;
        }
        if (reply.blocks != it->second.blocks ||
            reply.makespan != it->second.makespan) {
            torn_replies.fetch_add(1);
            return;
        }
        (reply.degraded ? ok_degraded : ok_exact).fetch_add(1);
    };

    fpm::test::run_concurrently(kClients, [&](std::size_t client_index) {
        ServeConfig config;
        config.max_retries = 5;
        config.backoff_base = 0.002;
        config.backoff_max = 0.02;
        config.retry_seed = client_index;
        std::unique_ptr<ServeClient> client;
        const auto reconnect = [&]() {
            for (int attempt = 0;; ++attempt) {
                try {
                    client = std::make_unique<ServeClient>(
                        "127.0.0.1", server.port(), config);
                    return;
                } catch (const fpm::Error&) {
                    if (attempt > 50) {
                        throw;
                    }
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(5));
                }
            }
        };
        reconnect();

        for (std::size_t batch = 0; batch < kBatches; ++batch) {
            std::vector<std::int64_t> batch_ns;
            std::vector<std::string> lines;
            for (std::size_t j = 0; j < kBatchSize; ++j) {
                const std::size_t mix = client_index + batch * kBatchSize + j;
                if (j % 8 == 7) {
                    batch_ns.push_back(0);
                    lines.push_back(load_line);
                    continue;
                }
                batch_ns.push_back(ns[mix % 4]);
                lines.push_back(partition_line("alpha", ns[mix % 4],
                                               algorithms[mix % 3]));
            }
            if (client_index % 2 == 0) {
                // Typed path: one retrying call() per request.
                for (std::size_t j = 0; j < kBatchSize; ++j) {
                    try {
                        if (!client) {
                            reconnect();
                        }
                        const Response response =
                            client->call(Request::decode(lines[j]));
                        validate(response.encode(), batch_ns[j]);
                    } catch (const TransportError&) {
                        clean_errors.fetch_add(1);  // retries exhausted
                        client.reset();
                    }
                }
            } else {
                // Pipelined path: whole batch in one write, manual retry
                // (requests are idempotent, so a torn batch is re-sent).
                bool delivered = false;
                for (int attempt = 0; attempt < 5 && !delivered; ++attempt) {
                    try {
                        if (!client) {
                            reconnect();
                        }
                        const auto replies = client->pipeline(lines);
                        for (std::size_t j = 0; j < replies.size(); ++j) {
                            validate(replies[j], batch_ns[j]);
                        }
                        delivered = true;
                    } catch (const TransportError&) {
                        client.reset();
                    }
                }
                if (!delivered) {
                    clean_errors.fetch_add(kBatchSize);  // lost cleanly
                }
            }
        }
    });

    server.stop();
    fault::uninstall();
    std::remove(csv.c_str());

    const std::uint64_t total = ok_exact.load() + ok_degraded.load() +
                                clean_errors.load() + torn_replies.load();
    EXPECT_EQ(torn_replies.load(), 0u);
    EXPECT_GE(total, kClients * kBatches * kBatchSize);
    // The vast majority must actually succeed — retries absorb the
    // injected faults instead of surfacing them.
    EXPECT_GE(ok_exact.load() + ok_degraded.load(),
              kClients * kBatches * kBatchSize * 8 / 10);

    // Site/name consistency: every documented injection point was
    // genuinely compiled into the path the chaos run exercised.
    for (const char* name : kPoints) {
        EXPECT_GT(point_evaluated(name), evaluated_before[name])
            << "injection point never reached: " << name;
    }
    EXPECT_GT(fault::injected_total(), 0u);
}

TEST(FaultChaos, PipelinedRequestsSurviveInjectedFaults) {
    chaos_pipelined_requests(1, 1);
}

// Same schedule against the 4-reactor SO_REUSEPORT pool with a sharded
// plan cache: faults land on whichever reactor owns the connection, and
// the torn-reply count must still be exactly zero.
TEST(FaultChaos, FourReactorPoolSurvivesInjectedFaults) {
    chaos_pipelined_requests(4, 4);
}

} // namespace
} // namespace fpm::serve
