// fpm::repl suite: ReplicationLog catch-up by generation (the store's
// latest records above a generation, in generation order, surviving
// snapshots that truncate the log and recovery), primary → replica
// convergence over the wire (fresh join, tailing across snapshots,
// restart from the replica's recovered generation, refusal of a replica
// ahead of the primary, bit-for-bit plan equality, replica-side
// durability),
// read-only write rejection, the typed STATS/HEALTH replication fields
// (each engine reports its own role, even with a primary and a replica
// in one process), client endpoint failover, a chaos run with every
// repl.* fault armed, hostile primaries (over-long and corrupt frames),
// and the headline fork()+SIGKILL drill: primary killed mid-stream, the
// replica serves the last acknowledged generation bit-for-bit and the
// failover client completes with zero torn replies.
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fpm/adapt/adapt_config.hpp"
#include "fpm/adapt/engine.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/repl/replication_log.hpp"
#include "fpm/repl/replication_server.hpp"
#include "fpm/repl/replicator.hpp"
#include "fpm/serve/client.hpp"
#include "fpm/serve/error.hpp"
#include "fpm/serve/line_conn.hpp"
#include "fpm/serve/model_registry.hpp"
#include "fpm/serve/protocol.hpp"
#include "fpm/serve/request_engine.hpp"
#include "fpm/serve/server.hpp"
#include "fpm/store/model_store.hpp"
#include "fpm/store/wal.hpp"

namespace fpm::repl {
namespace {

namespace fs = std::filesystem;
using core::SpeedFunction;
using core::SpeedPoint;
using serve::Endpoint;
using serve::ErrorCode;
using serve::ModelRegistry;
using serve::Request;
using serve::RequestEngine;
using serve::Response;
using serve::ServeClient;
using serve::ServeConfig;
using serve::ServiceError;
using serve::SocketServer;
using store::ModelStore;
using store::StoreOptions;

/// Deterministic synthetic device set (same family as test_store.cpp);
/// `seed` perturbs the speeds so successive generations differ.
std::vector<SpeedFunction> synthetic_models(std::size_t devices,
                                            std::size_t points_per_model,
                                            double seed) {
    std::vector<SpeedFunction> models;
    for (std::size_t d = 0; d < devices; ++d) {
        std::vector<SpeedPoint> points;
        const double peak =
            (1.0 + 0.05 * seed) * (40.0 + 17.0 * static_cast<double>(d));
        const double cliff = 900.0 + 400.0 * static_cast<double>(d);
        const double x_max = 6000.0;
        for (std::size_t p = 0; p < points_per_model; ++p) {
            const double x = 4.0 + (x_max - 4.0) * static_cast<double>(p) /
                                       static_cast<double>(points_per_model - 1);
            const double ramp = x / (x + 25.0);
            const double speed = (x < cliff ? peak : 0.45 * peak) * ramp;
            points.push_back(SpeedPoint{x, speed});
        }
        models.emplace_back(std::move(points), "dev" + std::to_string(d));
    }
    return models;
}

/// Fresh store directory under /tmp, removed on scope exit.
struct TempDir {
    TempDir() {
        char tmpl[] = "/tmp/fpmpart_repl_XXXXXX";
        const char* made = ::mkdtemp(tmpl);
        EXPECT_NE(made, nullptr);
        path = made != nullptr ? made : "/tmp/fpmpart_repl_fallback";
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string path;
};

/// Uninstalls any leftover fault plan when a test exits.
struct FaultGuard {
    ~FaultGuard() { fault::uninstall(); }
};

/// Polls `pred` until it holds or `seconds` elapse (sanitizer runs are
/// slow, so callers pass generous deadlines).
bool wait_until(const std::function<bool()>& pred, double seconds = 30.0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred()) {
            return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
}

/// A primary stack wired for replication: registry + durable store +
/// log + replication listener (and optionally a serve socket).
struct Primary {
    explicit Primary(const std::string& dir, std::uint64_t snapshot_every = 0,
                     double heartbeat = 0.05)
        : store(dir, make_options(snapshot_every)) {
        store.recover(registry);
        store.attach(registry);
        log = std::make_unique<ReplicationLog>(store);
        ReplServerConfig config;
        config.heartbeat_interval = heartbeat;
        server = std::make_unique<ReplicationServer>(*log, config);
    }
    ~Primary() {
        server->stop();
        log->stop();
        store.abandon();
    }

    static StoreOptions make_options(std::uint64_t snapshot_every) {
        StoreOptions options;
        options.snapshot_every = snapshot_every;
        return options;
    }

    ModelRegistry registry;
    ModelStore store;
    std::unique_ptr<ReplicationLog> log;
    std::unique_ptr<ReplicationServer> server;
};

/// A replica stack: its own durable store, a read-only engine and a
/// Replicator pointed at `source_port`.
struct Replica {
    Replica(const std::string& dir, std::uint16_t source_port)
        : store(dir), engine((recover(), registry),
                             {.workers = 2, .cache_capacity = 64}) {
        engine.set_read_only(true);
        ReplicatorConfig config;
        config.source = Endpoint{"127.0.0.1", source_port};
        config.transport.connect_timeout = 2.0;
        config.transport.recv_timeout = 2.0;
        config.transport.backoff_base = 0.01;
        config.transport.backoff_max = 0.05;
        replicator = std::make_unique<Replicator>(engine, &store, config);
        replicator->start();
    }
    ~Replica() {
        replicator->stop();
        store.abandon();
    }

    void recover() {
        store.recover(registry);
        store.attach(registry);
    }

    ModelRegistry registry;
    ModelStore store;
    RequestEngine engine;
    std::unique_ptr<Replicator> replicator;
};

std::uint64_t max_generation(const ModelRegistry& registry) {
    std::uint64_t top = 0;
    for (const auto& set : registry.snapshot()) {
        top = std::max(top, set->generation);
    }
    return top;
}

/// The generations of `records`, in order.
std::vector<std::uint64_t> generations_of(
    const std::vector<store::StoredRecord>& records) {
    std::vector<std::uint64_t> generations;
    for (const auto& record : records) {
        generations.push_back(record.generation);
    }
    return generations;
}

// ---------------------------------------------------------------------------
// ReplicationLog: catch-up by generation and live tailing
// ---------------------------------------------------------------------------

TEST(ReplicationLogTest, StreamsCommittedFramesInOrderThenTimesOut) {
    TempDir dir;
    ModelRegistry registry;
    StoreOptions options;
    options.snapshot_every = 0;
    ModelStore store(dir.path, options);
    store.recover(registry);
    store.attach(registry);
    registry.put("alpha", synthetic_models(2, 16, 1.0));
    registry.put("beta", synthetic_models(2, 16, 2.0));
    registry.put("alpha", synthetic_models(2, 16, 3.0));

    // From nothing: the latest record of every set, in generation order
    // (beta@2 before alpha@3, although alpha sorts first by name).
    ReplicationLog log(store);
    std::uint64_t generation = 0;
    std::vector<store::StoredRecord> records;
    ASSERT_EQ(log.next(generation, records, 1.0),
              ReplicationLog::Next::kRecords);
    EXPECT_EQ(generations_of(records), (std::vector<std::uint64_t>{2, 3}));
    EXPECT_EQ(generation, 3u);
    const auto record = store::decode_publish_record(records[1].payload, "test");
    EXPECT_EQ(record.name, "alpha");
    EXPECT_EQ(record.generation, 3u);
    EXPECT_EQ(record.fingerprint,
              serve::fingerprint_models(synthetic_models(2, 16, 3.0)));

    // From generation 2: only what came after it.
    generation = 2;
    ASSERT_EQ(log.next(generation, records, 1.0),
              ReplicationLog::Next::kRecords);
    EXPECT_EQ(generations_of(records), (std::vector<std::uint64_t>{3}));

    // Caught up: next() waits, then times out with the generation kept.
    EXPECT_EQ(log.next(generation, records, 0.02),
              ReplicationLog::Next::kTimeout);
    EXPECT_EQ(generation, 3u);
    store.abandon();
}

TEST(ReplicationLogTest, TailingNextWakesOnCommit) {
    TempDir dir;
    ModelRegistry registry;
    StoreOptions options;
    options.snapshot_every = 0;
    ModelStore store(dir.path, options);
    store.recover(registry);
    store.attach(registry);
    ReplicationLog log(store);

    std::uint64_t generation = 0;
    std::vector<store::StoredRecord> records;
    std::atomic<int> result{-1};
    std::thread tail([&] {
        result.store(static_cast<int>(log.next(generation, records, 20.0)));
    });
    // Give the tail a moment to block on the (empty) store, then
    // publish: the commit hook must wake it well before the timeout.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    registry.put("alpha", synthetic_models(2, 16, 1.0));
    tail.join();
    EXPECT_EQ(result.load(),
              static_cast<int>(ReplicationLog::Next::kRecords));
    EXPECT_EQ(generations_of(records), (std::vector<std::uint64_t>{1}));
    EXPECT_EQ(generation, 1u);
    store.abandon();
}

TEST(ReplicationLogTest, StopWakesBlockedReaders) {
    TempDir dir;
    ModelRegistry registry;
    ModelStore store(dir.path);
    store.recover(registry);
    store.attach(registry);
    ReplicationLog log(store);

    std::uint64_t generation = 0;
    std::vector<store::StoredRecord> records;
    std::atomic<int> result{-1};
    std::thread tail([&] {
        result.store(static_cast<int>(log.next(generation, records, 60.0)));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    log.stop();
    tail.join();
    EXPECT_EQ(result.load(),
              static_cast<int>(ReplicationLog::Next::kStopped));
    EXPECT_EQ(log.next(generation, records, 1.0),
              ReplicationLog::Next::kStopped);
    store.abandon();
}

TEST(ReplicationLogTest, RecordsSurviveSnapshotsAndRecovery) {
    // The records a follower catches up from live in the store, not in
    // its log: snapshots truncating it and a restart change none of them.
    TempDir dir;
    StoreOptions options;
    options.snapshot_every = 2;
    std::vector<store::StoredRecord> before;
    {
        ModelRegistry registry;
        ModelStore store(dir.path, options);
        store.recover(registry);
        store.attach(registry);
        for (int g = 1; g <= 7; ++g) {
            registry.put(g % 3 == 0 ? "gamma" : (g % 2 == 0 ? "beta" : "alpha"),
                         synthetic_models(2, 16, static_cast<double>(g)));
        }
        EXPECT_EQ(store.stats().snapshots, 3u);
        before = store.records_after(0);
        store.abandon();
    }
    // alpha@7, beta@4, gamma@6 — in generation order.
    EXPECT_EQ(generations_of(before), (std::vector<std::uint64_t>{4, 6, 7}));

    ModelRegistry registry;
    ModelStore store(dir.path, options);
    store.recover(registry);
    const auto after = store.records_after(0);
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(after[i].generation, before[i].generation);
        EXPECT_EQ(after[i].payload, before[i].payload) << "record " << i;
    }
    EXPECT_EQ(generations_of(store.records_after(6)),
              (std::vector<std::uint64_t>{7}));
    EXPECT_TRUE(store.records_after(7).empty());
    store.abandon();
}

// ---------------------------------------------------------------------------
// End to end: primary → replica over the wire
// ---------------------------------------------------------------------------

TEST(ReplEndToEnd, ReplicaConvergesTailsAndServesIdenticalPlans) {
    TempDir primary_dir;
    TempDir replica_dir;
    Primary primary(primary_dir.path);
    primary.registry.put("alpha", synthetic_models(3, 32, 1.0));
    primary.registry.put("beta", synthetic_models(2, 24, 2.0));

    Replica replica(replica_dir.path, primary.server->port());
    ASSERT_TRUE(wait_until(
        [&] { return replica.replicator->applied_generation() >= 2; }))
        << "replica never caught up to the initial generations";

    // Live tail: publishes stream straight through (no reconnect).
    primary.registry.put("alpha", synthetic_models(3, 32, 3.0));
    ASSERT_TRUE(wait_until(
        [&] { return replica.replicator->applied_generation() >= 3; }));

    // Same names, generations, fingerprints and generation counter.
    ASSERT_EQ(replica.registry.size(), 2u);
    for (const auto& set : primary.registry.snapshot()) {
        const auto mirrored = replica.registry.find(set->name);
        ASSERT_NE(mirrored, nullptr) << set->name;
        EXPECT_EQ(mirrored->generation, set->generation);
        EXPECT_EQ(mirrored->fingerprint, set->fingerprint);
    }
    EXPECT_EQ(replica.registry.next_generation(),
              primary.registry.next_generation());

    // Bit-for-bit: plans computed from the replicated snapshot match the
    // primary's exactly.
    for (const std::int64_t n : {24, 96, 1024}) {
        const auto expected = RequestEngine::compute_plan(
            *primary.registry.get("alpha"), n, serve::Algorithm::kFpm, true);
        const auto got = RequestEngine::compute_plan(
            *replica.registry.get("alpha"), n, serve::Algorithm::kFpm, true);
        EXPECT_EQ(got.blocks, expected.blocks);
        EXPECT_EQ(got.makespan, expected.makespan);
    }

    // The replica's own WAL logged every applied record: a crash-style
    // restart of the replica store reproduces the replicated registry.
    EXPECT_GE(replica.store.stats().appended, 3u);
    replica.replicator->stop();
    ModelRegistry recovered;
    {
        // recover() requires a store that was not left mid-write; the
        // replica's store stays open, so recover from a fresh handle.
        ModelStore reopened(replica_dir.path);
        reopened.recover(recovered);
        reopened.abandon();
    }
    EXPECT_EQ(recovered.size(), 2u);
    EXPECT_EQ(recovered.get("alpha")->fingerprint,
              primary.registry.get("alpha")->fingerprint);
    EXPECT_EQ(recovered.next_generation(),
              primary.registry.next_generation());
}

TEST(ReplEndToEnd, FreshReplicaReceivesEverySetInGenerationOrder) {
    // beta is older than alpha but sorts after it by name: a fresh
    // replica must still end with both sets.
    TempDir primary_dir;
    TempDir replica_dir;
    Primary primary(primary_dir.path);
    primary.registry.put("beta", synthetic_models(2, 24, 1.0));
    primary.registry.put("alpha", synthetic_models(3, 32, 2.0));

    Replica replica(replica_dir.path, primary.server->port());
    ASSERT_TRUE(wait_until(
        [&] { return replica.replicator->applied_generation() >= 2; }));
    ASSERT_EQ(replica.registry.size(), 2u);
    for (const auto& set : primary.registry.snapshot()) {
        const auto mirrored = replica.registry.find(set->name);
        ASSERT_NE(mirrored, nullptr) << set->name;
        EXPECT_EQ(mirrored->generation, set->generation);
        EXPECT_EQ(mirrored->fingerprint, set->fingerprint);
    }
    EXPECT_EQ(replica.replicator->frames_applied(), 2u);
    EXPECT_EQ(replica.replicator->snapshots_received(), 1u);
}

TEST(ReplEndToEnd, FreshReplicaTailsSnapshotsWithoutReconnecting) {
    TempDir primary_dir;
    TempDir replica_dir;
    // snapshot_every=2: every second publish snapshots and truncates the
    // log a tailing replica was just shipped from.
    Primary primary(primary_dir.path, 2);
    std::uint64_t generation = 0;
    for (; generation < 4; ++generation) {
        primary.registry.put(generation % 2 == 0 ? "alpha" : "beta",
                             synthetic_models(3, 32,
                                              static_cast<double>(generation)));
    }
    ASSERT_GE(primary.store.stats().snapshots, 2u);

    // The early records are gone from the log; the replica gets one
    // frame per set.
    Replica replica(replica_dir.path, primary.server->port());
    ASSERT_TRUE(wait_until([&] {
        return replica.replicator->applied_generation() == generation;
    }));
    EXPECT_EQ(replica.replicator->frames_applied(), 2u);

    // Tail five snapshots, one publish applied at a time.
    const std::uint64_t snapshots = primary.store.stats().snapshots;
    for (int i = 0; i < 10; ++i) {
        ++generation;
        primary.registry.put("alpha", synthetic_models(
                                          3, 32, static_cast<double>(generation)));
        ASSERT_TRUE(wait_until([&] {
            return replica.replicator->applied_generation() == generation;
        })) << "generation " << generation;
    }
    EXPECT_GE(primary.store.stats().snapshots, snapshots + 5);
    EXPECT_EQ(replica.replicator->frames_applied(), 12u);
    EXPECT_EQ(replica.replicator->reconnects(), 0u);
    EXPECT_EQ(replica.replicator->snapshots_received(), 1u);
    EXPECT_EQ(replica.registry.get("alpha")->fingerprint,
              primary.registry.get("alpha")->fingerprint);
    EXPECT_EQ(replica.registry.get("beta")->fingerprint,
              primary.registry.get("beta")->fingerprint);
}

TEST(ReplEndToEnd, RestartedReplicaResumesFromItsRecoveredGeneration) {
    TempDir primary_dir;
    TempDir replica_dir;
    Primary primary(primary_dir.path);
    for (int g = 1; g <= 14; ++g) {
        primary.registry.put(g % 2 == 0 ? "beta" : "alpha",
                             synthetic_models(2, 16, static_cast<double>(g)));
    }
    {
        Replica replica(replica_dir.path, primary.server->port());
        ASSERT_TRUE(wait_until(
            [&] { return replica.replicator->applied_generation() == 14; }));
    }

    // Published while the replica is down: beta@15, beta@16, alpha@17.
    primary.registry.put("beta", synthetic_models(2, 16, 15.0));
    primary.registry.put("beta", synthetic_models(2, 16, 16.0));
    primary.registry.put("alpha", synthetic_models(2, 16, 17.0));

    // Restarted on its own store, the replica says HELLO 14 and lacks
    // exactly beta@16 and alpha@17.
    Replica replica(replica_dir.path, primary.server->port());
    ASSERT_TRUE(wait_until(
        [&] { return replica.replicator->applied_generation() == 17; }));
    EXPECT_EQ(replica.replicator->frames_applied(), 2u);
    EXPECT_EQ(replica.replicator->snapshots_received(), 0u);
    EXPECT_EQ(replica.registry.get("beta")->generation, 16u);
    EXPECT_EQ(replica.registry.get("beta")->fingerprint,
              primary.registry.get("beta")->fingerprint);
    EXPECT_EQ(replica.registry.get("alpha")->generation, 17u);
    EXPECT_EQ(replica.registry.next_generation(),
              primary.registry.next_generation());
}

TEST(ReplEndToEnd, ReplicaAheadOfThePrimaryIsRefused) {
    TempDir primary_dir;
    TempDir replica_dir;
    {
        // The replica's store already holds alpha@3 ...
        ModelRegistry registry;
        ModelStore store(replica_dir.path);
        store.recover(registry);
        store.attach(registry);
        for (int g = 1; g <= 3; ++g) {
            registry.put("alpha", synthetic_models(2, 16, 10.0 + g));
        }
        store.stop();
    }
    // ... and the primary is only at generation 1.
    Primary primary(primary_dir.path);
    primary.registry.put("alpha", synthetic_models(2, 16, 1.0));

    Replica replica(replica_dir.path, primary.server->port());
    ASSERT_TRUE(wait_until(
        [&] { return replica.replicator->reconnects() >= 2; }, 10.0));
    EXPECT_EQ(replica.replicator->frames_applied(), 0u);
    EXPECT_FALSE(replica.replicator->connected());
    EXPECT_EQ(primary.server->frames_sent(), 0u);
    EXPECT_EQ(replica.registry.get("alpha")->generation, 3u);
}

TEST(ReplEndToEnd, ReplicaAnswersWritesWithTypedReadOnlyErrors) {
    TempDir primary_dir;
    TempDir replica_dir;
    Primary primary(primary_dir.path);
    primary.registry.put("alpha", synthetic_models(3, 32, 1.0));

    Replica replica(replica_dir.path, primary.server->port());
    ASSERT_TRUE(wait_until(
        [&] { return replica.replicator->applied_generation() >= 1; }));

    SocketServer server(replica.engine);
    server.start();
    {
        ServeClient client("127.0.0.1", server.port());

        // Reads serve normally.
        const auto reply = client.partition({"alpha", 64, serve::Algorithm::kFpm,
                                             true});
        EXPECT_EQ(reply.model, "alpha");
        EXPECT_EQ(reply.generation, 1u);

        // LOAD: typed ERR read_only, registry untouched.
        const auto loaded = Response::decode(
            client.request("LOAD evil /tmp/nonexistent.csv"));
        ASSERT_EQ(loaded.kind, Response::Kind::kError);
        EXPECT_EQ(loaded.error_code, ErrorCode::kReadOnly);
        EXPECT_EQ(replica.registry.find("evil"), nullptr);

        // FEEDBACK: the typed helper surfaces the same code.
        try {
            (void)client.report_feedback({"alpha", 0, 1000.0, 2.0});
            FAIL() << "expected ERR read_only";
        } catch (const ServiceError& e) {
            EXPECT_EQ(e.code(), ErrorCode::kReadOnly);
        }

        // STATS/HEALTH carry the replica's role, source and progress.
        const auto stats = client.stats();
        EXPECT_EQ(stats.role, "replica");
        EXPECT_EQ(stats.repl_source,
                  "127.0.0.1:" + std::to_string(primary.server->port()));
        EXPECT_EQ(stats.repl_applied_generation, 1u);
        const auto health = client.health();
        EXPECT_EQ(health.role, "replica");
        EXPECT_EQ(health.repl_applied_generation, 1u);
    }
    server.stop();
}

TEST(ReplEndToEnd, PrimaryAndReplicaInOneProcessReportTheirOwnRoles) {
    // Replication status lives on each engine: a primary served next to
    // a running replica in the same process still reports itself.
    TempDir primary_dir;
    TempDir replica_dir;
    Primary primary(primary_dir.path);
    primary.registry.put("alpha", synthetic_models(3, 32, 1.0));
    RequestEngine primary_engine(primary.registry,
                                 {.workers = 1, .cache_capacity = 16});
    SocketServer primary_server(primary_engine);
    primary_server.start();

    Replica replica(replica_dir.path, primary.server->port());
    ASSERT_TRUE(wait_until(
        [&] { return replica.replicator->applied_generation() >= 1; }));
    SocketServer replica_server(replica.engine);
    replica_server.start();
    {
        ServeClient client("127.0.0.1", primary_server.port());
        const auto stats = client.stats();
        EXPECT_EQ(stats.role, "primary");
        EXPECT_EQ(stats.repl_source, "-");
        EXPECT_EQ(stats.repl_applied_generation, 0u);
        const auto health = client.health();
        EXPECT_EQ(health.role, "primary");
        EXPECT_EQ(health.repl_source, "-");
        EXPECT_EQ(health.repl_applied_generation, 0u);
    }
    {
        ServeClient client("127.0.0.1", replica_server.port());
        const std::string source =
            "127.0.0.1:" + std::to_string(primary.server->port());
        const auto stats = client.stats();
        EXPECT_EQ(stats.role, "replica");
        EXPECT_EQ(stats.repl_source, source);
        const auto health = client.health();
        EXPECT_EQ(health.role, "replica");
        EXPECT_EQ(health.repl_source, source);
        EXPECT_EQ(health.repl_applied_generation, 1u);
    }
    replica_server.stop();
    primary_server.stop();
}

// ---------------------------------------------------------------------------
// Typed STATS/HEALTH replication fields (field list, extras, errors)
// ---------------------------------------------------------------------------

TEST(ReplTypedViews, StatsReplyCarriesTheEngineReplicationStatus) {
    ModelRegistry registry;
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 4});
    engine.set_repl_source("10.0.0.7:9111");
    engine.record_repl_contact(12, 9);

    const Response reply = serve::make_stats_reply(engine.stats(), 0);
    const auto stats = serve::ServerStats::from_fields(reply.fields);
    EXPECT_EQ(stats.role, "replica");
    EXPECT_EQ(stats.repl_source, "10.0.0.7:9111");
    EXPECT_EQ(stats.repl_lag_frames, 3u);
    EXPECT_EQ(stats.repl_applied_generation, 9u);
    EXPECT_GE(stats.repl_lag_seconds, 0.0);
    EXPECT_TRUE(stats.extras.empty());

    // record_repl_applied() advances progress without touching the clock.
    engine.record_repl_applied(12);
    const auto caught_up = engine.stats();
    EXPECT_EQ(caught_up.repl_lag_frames, 0u);
    EXPECT_EQ(caught_up.repl_applied_generation, 12u);
}

TEST(ReplTypedViews, HealthEncodeDecodeRoundTripsReplFields) {
    serve::ServerHealth sent;
    sent.live = true;
    sent.ready = true;
    sent.models = 2;
    sent.role = "replica";
    sent.repl_lag_frames = 5;
    sent.repl_lag_seconds = 1.25;
    sent.repl_source = "127.0.0.1:9000";
    sent.repl_applied_generation = 41;
    Response health;
    health.kind = Response::Kind::kHealth;
    health.fields = sent.to_fields();

    const Response decoded = Response::decode(health.encode());
    ASSERT_EQ(decoded.kind, Response::Kind::kHealth);
    const auto got = serve::ServerHealth::from_fields(decoded.fields);
    EXPECT_EQ(got.role, "replica");
    EXPECT_EQ(got.repl_lag_frames, 5u);
    EXPECT_DOUBLE_EQ(got.repl_lag_seconds, 1.25);
    EXPECT_EQ(got.repl_source, "127.0.0.1:9000");
    EXPECT_EQ(got.repl_applied_generation, 41u);
}

TEST(ReplTypedViews, UnknownFieldsLandInExtrasAndMalformedValuesThrow) {
    // Unknown keys are preserved verbatim (forward compat) — a v7 field
    // must survive a v6 decode untouched.
    const std::vector<serve::StatField> fields = {
        {"role", "replica"},
        {"repl_lag_frames", "7"},
        {"repl_quorum", "2/3"},  // unknown to this build
    };
    const auto stats = serve::ServerStats::from_fields(fields);
    EXPECT_EQ(stats.role, "replica");
    EXPECT_EQ(stats.repl_lag_frames, 7u);
    ASSERT_EQ(stats.extras.count("repl_quorum"), 1u);
    EXPECT_EQ(stats.extras.at("repl_quorum"), "2/3");

    const auto health = serve::ServerHealth::from_fields(fields);
    EXPECT_EQ(health.role, "replica");
    EXPECT_EQ(health.repl_lag_frames, 7u);
    EXPECT_EQ(health.extras.at("repl_quorum"), "2/3");

    // Known fields with malformed values fail loudly, never silently.
    for (const auto& bad : std::vector<serve::StatField>{
             {"repl_lag_frames", "many"},
             {"repl_lag_seconds", "soon"},
             {"repl_applied_generation", "-"},
             {"role", ""},
             {"repl_source", ""}}) {
        EXPECT_THROW((void)serve::ServerStats::from_fields({bad}), fpm::Error)
            << bad.name << "=" << bad.value;
        EXPECT_THROW((void)serve::ServerHealth::from_fields({bad}), fpm::Error)
            << bad.name << "=" << bad.value;
    }
}

// ---------------------------------------------------------------------------
// Client failover
// ---------------------------------------------------------------------------

TEST(ClientFailover, ConnectsPastADeadEndpointAndFailsOverMidStream) {
    ModelRegistry registry;
    registry.put("alpha", synthetic_models(2, 16, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 16});
    SocketServer primary(engine);
    primary.start();
    SocketServer backup(engine);
    backup.start();

    // A port nothing listens on: bind one, note it, close it.
    std::uint16_t dead_port = 0;
    {
        SocketServer probe(engine);
        probe.start();
        dead_port = probe.port();
        probe.stop();
    }

    ServeConfig config;
    config.max_retries = 3;
    config.backoff_base = 0.005;
    config.backoff_max = 0.02;

    // Connect-time failover: the dead endpoint is skipped in list order.
    {
        ServeClient client({Endpoint{"127.0.0.1", dead_port},
                            Endpoint{"127.0.0.1", backup.port()}},
                           config);
        EXPECT_EQ(client.failovers(), 1u);
        EXPECT_EQ(client.endpoint().port, backup.port());
        client.ping();
    }

    // Mid-stream failover: the active endpoint dies between requests and
    // call() reconnects against the next one transparently.
    ServeClient client({Endpoint{"127.0.0.1", primary.port()},
                        Endpoint{"127.0.0.1", backup.port()}},
                       config);
    Request request;
    request.kind = Request::Kind::kPartition;
    request.partition = {"alpha", 64, serve::Algorithm::kFpm, true};
    const Response before = client.call(request);
    ASSERT_EQ(before.kind, Response::Kind::kPartition);

    primary.stop();
    const Response after = client.call(request);
    ASSERT_EQ(after.kind, Response::Kind::kPartition);
    EXPECT_EQ(after.partition.blocks, before.partition.blocks);
    EXPECT_GE(client.failovers(), 1u);
    EXPECT_EQ(client.endpoint().port, backup.port());
    backup.stop();
}

TEST(ClientFailover, EndpointListParserAcceptsMixedForms) {
    const auto endpoints =
        serve::parse_endpoint_list("9001,node2:9002, 9003", "10.0.0.1");
    ASSERT_EQ(endpoints.size(), 3u);
    EXPECT_EQ(endpoints[0], (Endpoint{"10.0.0.1", 9001}));
    EXPECT_EQ(endpoints[1], (Endpoint{"node2", 9002}));
    EXPECT_EQ(endpoints[2], (Endpoint{"10.0.0.1", 9003}));
    for (const char* bad : {"", ",", "host:", ":9001", "host:notaport",
                            "70000"}) {
        EXPECT_THROW((void)serve::parse_endpoint_list(bad, "h"), fpm::Error)
            << bad;
    }
}

// ---------------------------------------------------------------------------
// Chaos: every repl.* fault armed; replication must converge anyway
// ---------------------------------------------------------------------------

TEST(ReplChaos, ArmedReplFaultsOnlyDelayConvergence) {
    FaultGuard fault_guard;
    TempDir primary_dir;
    TempDir replica_dir;
    Primary primary(primary_dir.path);
    primary.registry.put("alpha", synthetic_models(3, 24, 1.0));

    fault::install(fault::FaultPlan::parse(
        "seed=23,repl.handshake=0.5,repl.send=0.25,repl.apply=0.25"));
    Replica replica(replica_dir.path, primary.server->port());

    // Keep publishing until the replica has both survived at least one
    // injected failure and applied everything committed so far.
    std::uint64_t generation = 1;
    ASSERT_TRUE(wait_until(
        [&] {
            if (replica.replicator->reconnects() == 0 ||
                replica.replicator->applied_generation() < generation) {
                if (generation < 40) {
                    primary.registry.put(
                        "alpha", synthetic_models(
                                     3, 24, static_cast<double>(++generation)));
                }
                return false;
            }
            return true;
        },
        60.0))
        << "faults never both fired and healed (reconnects="
        << replica.replicator->reconnects()
        << ", applied=" << replica.replicator->applied_generation()
        << ", committed=" << generation << ")";

    // Disarm and verify clean convergence on the final content.
    fault::uninstall();
    primary.registry.put("alpha",
                         synthetic_models(3, 24, static_cast<double>(99)));
    ++generation;
    ASSERT_TRUE(wait_until([&] {
        return replica.replicator->applied_generation() ==
               primary.store.committed_generation();
    }));
    EXPECT_GE(replica.replicator->reconnects(), 1u);
    EXPECT_EQ(replica.registry.get("alpha")->fingerprint,
              primary.registry.get("alpha")->fingerprint);
    EXPECT_EQ(replica.registry.next_generation(),
              primary.registry.next_generation());
    EXPECT_EQ(max_generation(replica.registry), generation);
}

// ---------------------------------------------------------------------------
// Hostile and severing peers: bounded reads, back-off reset
// ---------------------------------------------------------------------------

/// A fake primary: accepts replication connections one at a time, reads
/// the replica's HELLO line and writes `reply`.  Then it hangs up, or,
/// with `hold`, keeps the socket open until the replica drops it.  Each
/// accept is timestamped.
class ScriptedPrimary {
public:
    ScriptedPrimary(std::string reply, bool hold)
        : reply_(std::move(reply)), hold_(hold),
          listener_(serve::listen_tcp("127.0.0.1", 0, false)) {
        thread_ = std::thread([this] { run(); });
    }
    ~ScriptedPrimary() {
        stop_.store(true);
        thread_.join();
        ::close(listener_.fd);
    }

    [[nodiscard]] std::uint16_t port() const { return listener_.port; }
    [[nodiscard]] std::vector<std::chrono::steady_clock::time_point>
    accepts() const {
        std::lock_guard lock(mutex_);
        return accepts_;
    }

private:
    void run() {
        while (!stop_.load()) {
            pollfd pfd{listener_.fd, POLLIN, 0};
            if (::poll(&pfd, 1, 20) <= 0) {
                continue;
            }
            const int fd = ::accept4(listener_.fd, nullptr, nullptr,
                                     SOCK_CLOEXEC);
            if (fd < 0) {
                continue;
            }
            {
                std::lock_guard lock(mutex_);
                accepts_.push_back(std::chrono::steady_clock::now());
            }
            serve::LineConn conn(fd, 0.02);
            try {
                (void)conn.read_line(kMaxReplLineBytes);  // REPL HELLO
                conn.send(reply_);
                while (hold_ && !stop_.load()) {
                    try {
                        (void)conn.read_line(kMaxReplLineBytes);
                    } catch (const serve::TransportError& e) {
                        if (e.kind() != serve::TransportError::Kind::kTimeout) {
                            break;  // the replica hung up
                        }
                    }
                }
            } catch (const serve::TransportError&) {
            }
        }
    }

    const std::string reply_;
    const bool hold_;
    const serve::Listener listener_;
    std::atomic<bool> stop_{false};
    mutable std::mutex mutex_;
    std::vector<std::chrono::steady_clock::time_point> accepts_;
    std::thread thread_;
};

TEST(ReplHostile, HostileRepliesEndTheSessionUnapplied) {
    const std::string over_long_frame =
        "OK REPL STREAM committed=1\nREPL FRAME bytes=" +
        std::to_string(store::kFrameHeaderBytes + store::kMaxFrameBytes + 1) +
        "\n";
    // A valid publish record whose frame carries a wrong CRC: only the
    // frame check stands between it and the registry.
    serve::ModelSet set;
    set.name = "alpha";
    set.models = synthetic_models(2, 16, 1.0);
    set.generation = 1;
    set.fingerprint = serve::fingerprint_models(set.models);
    std::string corrupt = store::encode_frame(store::encode_publish_record(set));
    corrupt[4] ^= 0x01;  // low byte of the CRC field
    const std::string corrupt_frame =
        "OK REPL STREAM committed=1\nREPL FRAME bytes=" +
        std::to_string(corrupt.size()) + "\n" + corrupt;
    // A REPL count is digits only: a signed one ends the session, and
    // committed=-1 never reads as a lag of 2^64 - 1 frames.
    for (const std::string& reply :
         {std::string(kMaxReplLineBytes + 1, 'x'), over_long_frame,
          corrupt_frame, std::string("OK REPL STREAM committed=-1\n"),
          std::string("OK REPL STREAM committed=+3\n"),
          std::string("OK REPL STREAM committed=1\nREPL FRAME bytes=-1\n")}) {
        // Every reply leaves the socket open, so only the replica's own
        // checks can end the session: recv_timeout is far longer than
        // the wait below.
        ScriptedPrimary primary(reply, true);
        ModelRegistry registry;
        RequestEngine engine(registry, {.workers = 1, .cache_capacity = 8});
        ReplicatorConfig config;
        config.source = Endpoint{"127.0.0.1", primary.port()};
        config.transport.recv_timeout = 60.0;
        config.transport.backoff_base = 0.01;
        Replicator replicator(engine, nullptr, config);
        replicator.start();
        EXPECT_TRUE(wait_until([&] { return primary.accepts().size() >= 2; },
                               10.0))
            << "the replica never dropped the hostile primary: "
            << reply.substr(0, 64);
        replicator.stop();
        EXPECT_EQ(replicator.frames_applied(), 0u);
        EXPECT_EQ(replicator.applied_generation(), 0u);
        EXPECT_EQ(registry.size(), 0u);
        EXPECT_NE(engine.stats().repl_lag_frames,
                  std::numeric_limits<std::uint64_t>::max());
    }
}

TEST(ReplHostile, FollowerSendingAnUnterminatedLineIsDropped) {
    TempDir dir;
    Primary primary(dir.path);
    // The follower waits 2 s for the hang-up, well under the session's
    // own 5 s recv deadline: only the line bound can end it in time.
    serve::LineConn follower(Endpoint{"127.0.0.1", primary.server->port()},
                             2.0, 2.0);
    follower.send(std::string(5000, 'x'));
    try {
        (void)follower.read_line(kMaxReplLineBytes);
        ADD_FAILURE() << "expected the primary to hang up";
    } catch (const serve::TransportError& e) {
        EXPECT_EQ(e.kind(), serve::TransportError::Kind::kPeerClosed)
            << e.what();
    }
    EXPECT_TRUE(wait_until([&] { return primary.server->sessions() == 0; }));
    EXPECT_EQ(primary.server->frames_sent(), 0u);
}

TEST(ReplHostile, MalformedHelloIsRefusedAndTheHandshakeIsPinned) {
    TempDir dir;
    Primary primary(dir.path);
    const Endpoint endpoint{"127.0.0.1", primary.server->port()};
    // A pre-generation replica's WAL position is refused like any other
    // malformed HELLO: a mixed pair fails at the handshake.
    for (const char* bad :
         {"REPL HELLO 0:0", "REPL HELLO -1", "REPL HELLO ", "REPL HELLO 1x",
          "REPL HELLO 18446744073709551616", "HELLO 0"}) {
        serve::LineConn follower(endpoint, 2.0, 2.0);
        follower.send(std::string(bad) + "\n");
        EXPECT_EQ(follower.read_line(kMaxReplLineBytes),
                  "ERR internal malformed REPL handshake")
            << bad;
    }
    serve::LineConn follower(endpoint, 2.0, 2.0);
    follower.send("REPL HELLO 0\n");
    EXPECT_EQ(follower.read_line(kMaxReplLineBytes),
              "OK REPL STREAM committed=0");
    EXPECT_EQ(primary.server->frames_sent(), 0u);
}

TEST(ReplBackoff, EstablishedSessionResetsTheBackoff) {
    // Every session completes its handshake and is then severed.  Each
    // reconnect must wait about backoff_base; without the reset the
    // waits double to 0.32 s, 0.64 s and 1.28 s by the seventh.
    ScriptedPrimary primary("OK REPL STREAM committed=0\n", false);
    ModelRegistry registry;
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 8});
    ReplicatorConfig config;
    config.source = Endpoint{"127.0.0.1", primary.port()};
    config.transport.backoff_base = 0.02;
    config.transport.backoff_max = 2.0;
    Replicator replicator(engine, nullptr, config);
    replicator.start();
    ASSERT_TRUE(
        wait_until([&] { return primary.accepts().size() >= 8; }, 10.0));
    replicator.stop();

    const auto accepts = primary.accepts();
    for (std::size_t i = 1; i < 8; ++i) {
        const double gap =
            std::chrono::duration<double>(accepts[i] - accepts[i - 1])
                .count();
        EXPECT_GE(gap, config.transport.backoff_base) << "reconnect " << i;
        EXPECT_LT(gap, 0.25) << "reconnect " << i;
    }
    EXPECT_GE(replicator.reconnects(), 7u);
}

TEST(ReplLag, CatchUpReportsLagAgainstTheAnnouncedCommit) {
    // The primary announces generation 7 and then sends nothing: until
    // frames land, the replica is seven publishes behind.
    ScriptedPrimary primary("OK REPL STREAM committed=7\n", true);
    ModelRegistry registry;
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 8});
    ReplicatorConfig config;
    config.source = Endpoint{"127.0.0.1", primary.port()};
    config.transport.recv_timeout = 60.0;
    Replicator replicator(engine, nullptr, config);
    replicator.start();
    ASSERT_TRUE(wait_until([&] { return replicator.connected(); }, 10.0));
    const auto stats = engine.stats();
    EXPECT_EQ(stats.repl_lag_frames, 7u);
    EXPECT_EQ(stats.repl_applied_generation, 0u);
    replicator.stop();
}

// ---------------------------------------------------------------------------
// The headline drill: fork a primary (serve + replication + adapt),
// stream mixed traffic through a failover client while adapt
// republishes, SIGKILL the primary, and verify the replica serves the
// last acknowledged generation bit-for-bit with zero torn replies.
// ---------------------------------------------------------------------------

TEST(ReplDrill, PrimarySigkillFailsOverToAConvergedReplica) {
    TempDir primary_dir;
    TempDir replica_dir;
    int port_pipe[2];
    ASSERT_EQ(::pipe(port_pipe), 0);

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Child: the primary process — durable store, serve socket,
        // replication listener, online adaptation.  Reports its ports,
        // then serves until the SIGKILL lands.
        ::close(port_pipe[0]);
        try {
            ModelRegistry registry;
            ModelStore store(primary_dir.path);
            store.recover(registry);
            store.attach(registry);
            registry.put("hybrid", synthetic_models(3, 32, 1.0));
            RequestEngine engine(registry, {.workers = 2,
                                            .cache_capacity = 64});
            adapt::AdaptConfig adapt_config;
            adapt_config.min_samples = 2;
            adapt_config.drift_threshold = 0.05;
            adapt_config.cusum_limit = 0.1;
            adapt::AdaptEngine adapter(engine, adapt_config);
            ReplicationLog log(store);
            ReplServerConfig repl_config;
            repl_config.heartbeat_interval = 0.05;
            ReplicationServer repl_server(log, repl_config);
            SocketServer server(engine);
            server.start();
            const std::uint32_t ports[2] = {server.port(),
                                            repl_server.port()};
            if (::write(port_pipe[1], ports, sizeof ports) !=
                static_cast<ssize_t>(sizeof ports)) {
                ::_exit(2);
            }
            ::pause();  // hold everything open until the SIGKILL
        } catch (...) {
            ::_exit(1);
        }
        ::_exit(0);
    }

    ::close(port_pipe[1]);
    std::uint32_t ports[2] = {0, 0};
    ASSERT_EQ(::read(port_pipe[0], ports, sizeof ports),
              static_cast<ssize_t>(sizeof ports))
        << "primary child failed to start";
    ::close(port_pipe[0]);
    const auto serve_port = static_cast<std::uint16_t>(ports[0]);
    const auto repl_port = static_cast<std::uint16_t>(ports[1]);

    // Parent: the replica stack plus its own serve socket.
    Replica replica(replica_dir.path, repl_port);
    SocketServer replica_server(replica.engine);
    replica_server.start();

    // The failover client: primary first, replica second.
    ServeConfig client_config;
    client_config.max_retries = 4;
    client_config.backoff_base = 0.01;
    client_config.backoff_max = 0.05;
    client_config.connect_timeout = 2.0;
    client_config.recv_timeout = 5.0;
    ServeClient client({Endpoint{"127.0.0.1", serve_port},
                        Endpoint{"127.0.0.1", replica_server.port()}},
                       client_config);

    constexpr std::size_t kTotalRequests = 500;
    std::size_t issued = 0;
    std::size_t torn = 0;

    const auto issue_mixed = [&](std::size_t count, bool allow_read_only) {
        for (std::size_t i = 0; i < count; ++i, ++issued) {
            Request request;
            if (i % 7 == 3) {
                request.kind = Request::Kind::kStats;
            } else if (i % 7 == 5) {
                request.kind = Request::Kind::kHealth;
            } else {
                request.kind = Request::Kind::kPartition;
                request.partition = {"hybrid",
                                     16 + static_cast<std::int64_t>(i % 64),
                                     serve::Algorithm::kFpm, true};
            }
            try {
                const Response response = client.call(request);
                const bool expected_error =
                    response.kind == Response::Kind::kError &&
                    allow_read_only &&
                    response.error_code == ErrorCode::kReadOnly;
                if (response.kind == Response::Kind::kError &&
                    !expected_error) {
                    ++torn;
                }
            } catch (const fpm::Error&) {
                ++torn;  // transport failure the failover failed to mask
            }
        }
    };

    // Phase 1: mixed traffic against the live primary.
    issue_mixed(250, false);

    // Phase 2: feedback that disagrees with the served model (device 0
    // runs at half speed) until adapt republishes a refined generation.
    const SpeedFunction device0 = synthetic_models(3, 32, 1.0)[0];
    bool republished = false;
    for (int i = 0; i < 150 && !republished; ++i, ++issued) {
        Request request;
        request.kind = Request::Kind::kFeedback;
        request.feedback = {"hybrid", 0, 1000.0, 2.0 * device0.time(1000.0)};
        const Response response = client.call(request);
        ASSERT_EQ(response.kind, Response::Kind::kFeedback);
        republished = response.feedback.republished;
    }
    ASSERT_TRUE(republished) << "adapt never republished a generation";

    // The primary's committed generation (adapt only republishes on
    // ingest, so with feedback stopped this is stable).
    Request models_request;
    models_request.kind = Request::Kind::kModels;
    const Response models = client.call(models_request);
    ASSERT_EQ(models.kind, Response::Kind::kModels);
    ASSERT_EQ(models.sets.size(), 1u);
    const std::uint64_t last_acknowledged = models.sets[0].generation;
    EXPECT_GE(last_acknowledged, 2u);

    // Wait for full convergence, then record the primary's answers.
    ASSERT_TRUE(wait_until([&] {
        return replica.replicator->applied_generation() >= last_acknowledged;
    })) << "replica never acknowledged generation " << last_acknowledged;
    std::vector<serve::PartitionReply> expected;
    {
        ServeClient primary_only("127.0.0.1", serve_port);
        for (const std::int64_t n : {24, 96, 512}) {
            expected.push_back(
                primary_only.partition({"hybrid", n, serve::Algorithm::kFpm,
                                        true}));
        }
    }

    // The kill: primary gone mid-stream, replica takes over.
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int wait_status = 0;
    ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(wait_status));
    ASSERT_EQ(WTERMSIG(wait_status), SIGKILL);

    // Phase 3: the remaining traffic fails over to the replica.  Write
    // verbs now answer typed read_only errors; nothing may tear.
    ASSERT_GT(kTotalRequests, issued);
    issue_mixed(kTotalRequests - issued, true);
    EXPECT_EQ(issued, kTotalRequests);
    EXPECT_EQ(torn, 0u);
    EXPECT_GE(client.failovers(), 1u);
    EXPECT_EQ(client.endpoint().port, replica_server.port());

    // FEEDBACK against the replica is a typed read_only rejection.
    try {
        (void)client.report_feedback({"hybrid", 0, 1000.0, 2.0});
        FAIL() << "expected ERR read_only from the replica";
    } catch (const ServiceError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kReadOnly);
    }

    // The replica's HEALTH reports the last acknowledged generation and
    // a staleness clock that started growing when the primary died.
    EXPECT_EQ(replica.replicator->applied_generation(), last_acknowledged);
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    const auto health = client.health();
    EXPECT_EQ(health.role, "replica");
    EXPECT_EQ(health.repl_applied_generation, last_acknowledged);
    EXPECT_GT(health.repl_lag_seconds, 0.0);

    // PARTITION replies are bit-for-bit what the primary last served
    // (modulo cached=, which depends on each engine's cache history).
    for (const auto& want : expected) {
        const auto got = client.partition({want.model, want.n,
                                           want.algorithm, true});
        EXPECT_EQ(got.generation, want.generation);
        EXPECT_EQ(got.blocks, want.blocks);
        EXPECT_EQ(got.makespan, want.makespan);
        EXPECT_EQ(got.balanced_time, want.balanced_time);
        EXPECT_EQ(got.comm_cost, want.comm_cost);
        ASSERT_EQ(got.rects.size(), want.rects.size());
        for (std::size_t r = 0; r < want.rects.size(); ++r) {
            EXPECT_EQ(got.rects[r].col0, want.rects[r].col0);
            EXPECT_EQ(got.rects[r].row0, want.rects[r].row0);
            EXPECT_EQ(got.rects[r].w, want.rects[r].w);
            EXPECT_EQ(got.rects[r].h, want.rects[r].h);
        }
    }

    replica_server.stop();
}

} // namespace
} // namespace fpm::repl
