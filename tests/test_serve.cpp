// Tests for the partition service: model registry versioning, LRU cache,
// wire protocol, request engine (cache, compute on a miss) and the
// socket server/client integration — including the acceptance scenario:
// >= 32 concurrent requests over >= 2 model sets whose responses must
// match the direct library call bit-for-bit, with cache hits making
// repeated queries measurably faster than cold ones.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fpm/core/model_io.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/measure/timer.hpp"
#include "fpm/obs/trace.hpp"
#include "fpm/serve/client.hpp"
#include "fpm/serve/model_registry.hpp"
#include "fpm/serve/partition_cache.hpp"
#include "fpm/serve/protocol.hpp"
#include "fpm/serve/request_engine.hpp"
#include "fpm/serve/server.hpp"
#include "stress_harness.hpp"

namespace fpm::serve {
namespace {

using core::SpeedFunction;
using core::SpeedPoint;

/// Deterministic synthetic device set; `points_per_model` controls how
/// expensive a cold partition is (the envelopes resample every segment).
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

std::shared_ptr<const PartitionPlan> plan_of(double balanced = 1.0) {
    auto plan = std::make_shared<PartitionPlan>();
    plan->balanced_time = balanced;
    return plan;
}

TEST(Fingerprint, ContentDeterminesHash) {
    const auto a = synthetic_models(3, 16, 1.0);
    const auto b = synthetic_models(3, 16, 1.0);
    const auto c = synthetic_models(3, 16, 1.1);
    EXPECT_EQ(fingerprint_models(a), fingerprint_models(b));
    EXPECT_NE(fingerprint_models(a), fingerprint_models(c));
    EXPECT_NE(fingerprint_models(a),
              fingerprint_models(synthetic_models(4, 16, 1.0)));
}

TEST(Fingerprint, PinnedValue) {
    // Every WAL record and snapshot carries this hash and recovery
    // re-checks it, so its value may never change.
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 5.0}, {100.0, 20.0}}, "cpu"),
        SpeedFunction({{10.0, 50.0}, {300.0, 80.0}}, "gpu", 400.0),
    };
    EXPECT_EQ(fingerprint_models(models), 0x5d16e23cd79205a7ULL);
}

TEST(Fingerprint, IndependentOfRegistryName) {
    ModelRegistry registry;
    const auto first = registry.put("alpha", synthetic_models(2, 8, 1.0));
    const auto second = registry.put("beta", synthetic_models(2, 8, 1.0));
    EXPECT_EQ(first->fingerprint, second->fingerprint);
    EXPECT_NE(first->generation, second->generation);
}

TEST(ModelRegistryTest, VersioningAndHotReload) {
    ModelRegistry registry;
    const auto v1 = registry.put("hybrid", synthetic_models(3, 8, 1.0));
    EXPECT_EQ(registry.size(), 1U);
    EXPECT_EQ(registry.get("hybrid")->generation, v1->generation);

    // Hot reload installs a new generation; the old snapshot stays valid
    // for whoever still holds it (in-flight requests).
    const auto v2 = registry.put("hybrid", synthetic_models(3, 8, 2.0));
    EXPECT_GT(v2->generation, v1->generation);
    EXPECT_EQ(registry.size(), 1U);
    EXPECT_EQ(registry.get("hybrid")->generation, v2->generation);
    EXPECT_EQ(v1->models.size(), 3U);  // old snapshot untouched
    EXPECT_NE(v1->fingerprint, v2->fingerprint);
}

TEST(ModelRegistryTest, Validation) {
    ModelRegistry registry;
    EXPECT_THROW(registry.put("", synthetic_models(1, 8, 1.0)), fpm::Error);
    EXPECT_THROW(registry.put("has space", synthetic_models(1, 8, 1.0)),
                 fpm::Error);
    EXPECT_THROW(registry.put("has,comma", synthetic_models(1, 8, 1.0)),
                 fpm::Error);
    EXPECT_THROW(registry.put("ok", {}), fpm::Error);
    EXPECT_THROW(registry.get("missing"), fpm::Error);
    EXPECT_EQ(registry.find("missing"), nullptr);
}

TEST(ModelRegistryTest, PutAndRestoreShareOneNameRule) {
    // ':' separates a MODELS entry's fields: a set named "a:b" would
    // make every later MODELS reply undecodable.
    const std::string csv = "/tmp/fpmpart_serve_set_name.csv";
    core::save_speed_functions_csv(csv, synthetic_models(2, 8, 1.0));
    ModelRegistry registry;
    registry.put("ok", synthetic_models(2, 8, 1.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 4});

    const Response refused =
        Response::decode(handle_line(engine, "LOAD a:b " + csv));
    ASSERT_EQ(refused.kind, Response::Kind::kError);
    EXPECT_EQ(refused.error_code, ErrorCode::kBadRequest) << refused.error;
    EXPECT_EQ(registry.size(), 1U);
    EXPECT_EQ(registry.next_generation(), 2U);
    const Response models = Response::decode(handle_line(engine, "MODELS"));
    ASSERT_EQ(models.kind, Response::Kind::kModels);
    ASSERT_EQ(models.sets.size(), 1U);
    EXPECT_EQ(models.sets[0].name, "ok");

    // Recovery and the replica install sets through restore().
    for (const char* name : {"x,y", "a:b", "a=b", "a b", ""}) {
        EXPECT_THROW(registry.restore(name, synthetic_models(2, 8, 1.0), 9),
                     ServiceError)
            << name;
    }
    EXPECT_EQ(registry.size(), 1U);
    std::remove(csv.c_str());
}

TEST(ModelRegistryTest, NamesHoldingAnyWireWhitespaceAreRefused) {
    // Decoders split on \v and \f as well as space, \t, \r and \n, so
    // a set named "a\vb" would make every later MODELS reply undecodable.
    ModelRegistry registry;
    registry.put("ok", synthetic_models(2, 8, 1.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 4});
    for (const std::string name : {"a\vb", "a\fb"}) {
        try {
            registry.put(name, synthetic_models(2, 8, 1.0));
            ADD_FAILURE() << "put accepted a name holding byte "
                          << static_cast<int>(name[1]);
        } catch (const ServiceError& e) {
            EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
        }
        try {
            registry.restore(name, synthetic_models(2, 8, 1.0), 9);
            ADD_FAILURE() << "restore accepted a name holding byte "
                          << static_cast<int>(name[1]);
        } catch (const ServiceError& e) {
            EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
        }
    }
    EXPECT_EQ(registry.size(), 1U);
    const Response models = Response::decode(handle_line(engine, "MODELS"));
    ASSERT_EQ(models.kind, Response::Kind::kModels);
    ASSERT_EQ(models.sets.size(), 1U);
    EXPECT_EQ(models.sets[0].name, "ok");
}

TEST(ModelRegistryTest, PutAndRestoreShareOneSizeRule) {
    ModelRegistry registry;
    // The largest admissible set: kMaxDevices models, one of them holding
    // kMaxPoints points.
    auto largest = synthetic_models(kMaxDevices, 8, 1.0);
    largest[0] = synthetic_models(1, kMaxPoints, 1.0)[0];
    EXPECT_NO_THROW(registry.put("largest", largest));

    auto too_long = synthetic_models(2, 8, 1.0);
    too_long[1] = synthetic_models(1, kMaxPoints + 1, 1.0)[0];
    const std::vector<std::pair<std::vector<SpeedFunction>, std::string>>
        refused = {
            {synthetic_models(kMaxDevices + 1, 8, 1.0),
             "model set holds 1025 devices, more than 1024"},
            {too_long, "model 1 holds 1025 points, more than 1024"},
        };
    for (const auto& [models, message] : refused) {
        for (const bool restoring : {false, true}) {
            try {
                if (restoring) {
                    registry.restore("big", models, 9);
                } else {
                    registry.put("big", models);
                }
                ADD_FAILURE() << "accepted: " << message;
            } catch (const ServiceError& e) {
                EXPECT_EQ(e.code(), ErrorCode::kBadRequest) << message;
                EXPECT_EQ(e.message(), message);
            }
        }
    }
    EXPECT_EQ(registry.size(), 1U);
    EXPECT_EQ(registry.next_generation(), 2U);
}

TEST(PartitionCacheTest, LruEvictionAndCounters) {
    PartitionCache cache(2);
    const PlanKey k1{1, 10, Algorithm::kFpm, true};
    const PlanKey k2{1, 20, Algorithm::kFpm, true};
    const PlanKey k3{1, 30, Algorithm::kFpm, true};

    EXPECT_EQ(cache.get(k1), nullptr);  // miss
    cache.put(k1, plan_of(1.0));
    cache.put(k2, plan_of(2.0));
    EXPECT_NE(cache.get(k1), nullptr);  // hit, k1 now most recent
    cache.put(k3, plan_of(3.0));        // evicts k2 (least recent)
    EXPECT_EQ(cache.get(k2), nullptr);
    EXPECT_NE(cache.get(k3), nullptr);

    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 2U);
    EXPECT_EQ(stats.misses, 2U);
    EXPECT_EQ(stats.evictions, 1U);
    EXPECT_EQ(stats.size, 2U);

    cache.clear();
    EXPECT_EQ(cache.stats().size, 0U);
    EXPECT_THROW(PartitionCache(0), fpm::Error);
}

TEST(PartitionCacheTest, ShardingKeepsSemanticsAndSumsCounters) {
    // 3 stripes round up to 4 (power of two); every key of one
    // fingerprint lands on one stripe, so invalidation is single-shard.
    PartitionCache cache(8, 3);
    EXPECT_EQ(cache.shard_count(), 4U);

    constexpr std::uint64_t kFingerprints[] = {11, 22, 33, 44, 55};
    for (const std::uint64_t fp : kFingerprints) {
        cache.put(PlanKey{fp, 10, Algorithm::kFpm, true}, plan_of(1.0));
        cache.put(PlanKey{fp, 20, Algorithm::kFpm, true}, plan_of(2.0));
        EXPECT_NE(cache.get(PlanKey{fp, 10, Algorithm::kFpm, true}), nullptr);
        EXPECT_EQ(cache.get(PlanKey{fp, 99, Algorithm::kFpm, true}), nullptr);
    }

    // Per-shard counters sum field-wise to the global view.
    const auto global = cache.stats();
    const auto shards = cache.shard_stats();
    ASSERT_EQ(shards.size(), cache.shard_count());
    CacheStats sum;
    for (const auto& shard : shards) {
        sum.hits += shard.hits;
        sum.misses += shard.misses;
        sum.evictions += shard.evictions;
        sum.size += shard.size;
    }
    EXPECT_EQ(sum.hits, global.hits);
    EXPECT_EQ(sum.misses, global.misses);
    EXPECT_EQ(sum.evictions, global.evictions);
    EXPECT_EQ(sum.size, global.size);
    EXPECT_EQ(global.hits, 5U);
    EXPECT_EQ(global.misses, 5U);

    // Invalidating one fingerprint leaves every other one servable.
    cache.erase_fingerprint(33);
    EXPECT_EQ(cache.get(PlanKey{33, 10, Algorithm::kFpm, true}), nullptr);
    EXPECT_EQ(cache.get(PlanKey{33, 20, Algorithm::kFpm, true}), nullptr);
    EXPECT_NE(cache.get(PlanKey{22, 10, Algorithm::kFpm, true}), nullptr);
    EXPECT_NE(cache.get(PlanKey{44, 20, Algorithm::kFpm, true}), nullptr);

    EXPECT_THROW(PartitionCache(8, 0), fpm::Error);
}

TEST(PartitionCacheTest, KeyOrderingDiscriminatesEveryField) {
    const PlanKey base{7, 10, Algorithm::kFpm, true};
    PlanKey other = base;
    other.fingerprint = 8;
    EXPECT_NE(base, other);
    other = base;
    other.algorithm = Algorithm::kCpm;
    EXPECT_NE(base, other);
    other = base;
    other.with_layout = false;
    EXPECT_NE(base, other);
}

TEST(Protocol, AlgorithmNamesRoundTrip) {
    for (const Algorithm algorithm :
         {Algorithm::kFpm, Algorithm::kCpm, Algorithm::kEven}) {
        EXPECT_EQ(part::parse_algorithm(part::to_string(algorithm)), algorithm);
    }
    EXPECT_EQ(part::parse_algorithm("nope"), std::nullopt);
}

TEST(Protocol, DecodeRequest) {
    EXPECT_EQ(Request::decode("PING").kind, Request::Kind::kPing);
    EXPECT_EQ(Request::decode("QUIT").kind, Request::Kind::kQuit);
    EXPECT_EQ(Request::decode("STATS").kind, Request::Kind::kStats);
    EXPECT_EQ(Request::decode("MODELS").kind, Request::Kind::kModels);

    const Request load = Request::decode("LOAD hybrid /tmp/m.csv");
    EXPECT_EQ(load.kind, Request::Kind::kLoad);
    EXPECT_EQ(load.name, "hybrid");
    EXPECT_EQ(load.path, "/tmp/m.csv");

    const Request p = Request::decode("PARTITION hybrid 60 cpm nolayout");
    EXPECT_EQ(p.kind, Request::Kind::kPartition);
    EXPECT_EQ(p.partition.model_set, "hybrid");
    EXPECT_EQ(p.partition.n, 60);
    EXPECT_EQ(p.partition.algorithm, Algorithm::kCpm);
    EXPECT_FALSE(p.partition.with_layout);

    EXPECT_THROW(Request::decode(""), fpm::Error);
    EXPECT_THROW(Request::decode("FROB"), fpm::Error);
    EXPECT_THROW(Request::decode("PING extra"), fpm::Error);
    EXPECT_THROW(Request::decode("LOAD onlyname"), fpm::Error);
    EXPECT_THROW(Request::decode("PARTITION hybrid"), fpm::Error);
    EXPECT_THROW(Request::decode("PARTITION hybrid abc fpm"), fpm::Error);
    EXPECT_THROW(Request::decode("PARTITION hybrid 60x fpm"), fpm::Error);
    EXPECT_THROW(Request::decode("PARTITION hybrid -5 fpm"), fpm::Error);
    EXPECT_THROW(Request::decode("PARTITION hybrid 60 magic"), fpm::Error);
    EXPECT_THROW(Request::decode("PARTITION hybrid 60 fpm wat"), fpm::Error);
}

TEST(Protocol, RequestEncodeDecodeRoundTrip) {
    const char* lines[] = {"PING", "QUIT", "STATS", "MODELS",
                           "LOAD hybrid /tmp/m.csv",
                           "PARTITION hybrid 60 cpm nolayout",
                           "PARTITION hybrid 48 fpm"};
    for (const char* line : lines) {
        const Request request = Request::decode(line);
        EXPECT_EQ(request.encode(), line);
        // decode(encode()) is the identity on kinds.
        EXPECT_EQ(Request::decode(request.encode()).kind, request.kind);
    }
}

TEST(Protocol, ResponseEncodeDecodeRoundTrip) {
    {
        const Response error =
            Response::make_error(ErrorCode::kInternal, "it\nbroke");
        // The newline is sanitized away.
        EXPECT_EQ(error.encode(), "ERR internal it broke");
        const Response decoded = Response::decode(error.encode());
        EXPECT_EQ(decoded.kind, Response::Kind::kError);
        EXPECT_EQ(decoded.error_code, ErrorCode::kInternal);
        EXPECT_EQ(decoded.error, "it broke");
    }
    {
        // A message-less typed error is the bare token on the wire and
        // round-trips to itself (`error` is never empty).
        const Response busy = Response::make_error(ErrorCode::kBusy);
        EXPECT_EQ(busy.encode(), "ERR busy");
        const Response decoded = Response::decode(busy.encode());
        EXPECT_EQ(decoded.error_code, ErrorCode::kBusy);
        EXPECT_EQ(decoded.error, "busy");
        EXPECT_EQ(decoded.encode(), "ERR busy");
    }
    {
        Response pong;
        pong.kind = Response::Kind::kPong;
        pong.version = kProtocolVersion;
        const Response decoded = Response::decode(pong.encode());
        EXPECT_EQ(decoded.kind, Response::Kind::kPong);
        EXPECT_EQ(decoded.version, kProtocolVersion);
    }
    {
        Response loaded;
        loaded.kind = Response::Kind::kLoaded;
        loaded.loaded = LoadedReply{"hybrid", 3, 7, 0xdeadbeefcafef00dULL};
        const Response decoded = Response::decode(loaded.encode());
        EXPECT_EQ(decoded.kind, Response::Kind::kLoaded);
        EXPECT_EQ(decoded.loaded.name, "hybrid");
        EXPECT_EQ(decoded.loaded.models, 3U);
        EXPECT_EQ(decoded.loaded.generation, 7U);
        EXPECT_EQ(decoded.loaded.fingerprint, 0xdeadbeefcafef00dULL);
    }
    {
        Response models;
        models.kind = Response::Kind::kModels;
        models.sets = {ModelSetInfo{"a", 1, 2}, ModelSetInfo{"b", 3, 4}};
        const Response decoded = Response::decode(models.encode());
        ASSERT_EQ(decoded.sets.size(), 2U);
        EXPECT_EQ(decoded.sets[1].name, "b");
        EXPECT_EQ(decoded.sets[1].generation, 3U);
        EXPECT_EQ(decoded.sets[1].models, 4U);
    }
    EXPECT_THROW(Response::decode("OK WAT"), fpm::Error);
    EXPECT_THROW(Response::decode("nope"), fpm::Error);
}

TEST(Protocol, HandleLineBasics) {
    ModelRegistry registry;
    registry.put("tiny", synthetic_models(2, 8, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 8});

    EXPECT_EQ(handle_line(engine, "PING"),
              "OK PONG v" + std::to_string(kProtocolVersion));
    EXPECT_EQ(handle_line(engine, "QUIT"), "OK BYE");
    EXPECT_EQ(handle_line(engine, "BOGUS").rfind("ERR ", 0), 0U);
    EXPECT_EQ(handle_line(engine, "PARTITION missing 10 fpm").rfind("ERR ", 0),
              0U);

    const std::string models = handle_line(engine, "MODELS");
    EXPECT_NE(models.find("OK MODELS count=1"), std::string::npos);
    EXPECT_NE(models.find("tiny:"), std::string::npos);

    const std::string reply = handle_line(engine, "PARTITION tiny 16 fpm");
    const PartitionReply parsed = parse_partition_reply(reply);
    EXPECT_EQ(parsed.model, "tiny");
    EXPECT_EQ(parsed.n, 16);
    EXPECT_EQ(parsed.blocks.size(), 2U);
    EXPECT_EQ(parsed.rects.size(), 2U);

    // Two PARTITION lines hit the engine (the failed one still counts);
    // the STATS reply round-trips into the typed ServerStats view.
    const Response stats_response =
        Response::decode(handle_line(engine, "STATS"));
    ASSERT_EQ(stats_response.kind, Response::Kind::kStats);
    const ServerStats stats = ServerStats::from_fields(stats_response.fields);
    EXPECT_EQ(stats.requests, 2U);
    EXPECT_EQ(stats.computed, 1U);

    // Per-algorithm latency quantiles: only the fpm request completed.
    const AlgorithmStats& fpm_lat =
        stats.by_algorithm[static_cast<std::size_t>(Algorithm::kFpm)];
    EXPECT_EQ(fpm_lat.count, 1U);
    EXPECT_GT(fpm_lat.p50_us, 0.0);
    EXPECT_GE(fpm_lat.p95_us, fpm_lat.p50_us);
    EXPECT_GE(fpm_lat.p99_us, fpm_lat.p95_us);
    EXPECT_EQ(stats.by_algorithm[static_cast<std::size_t>(Algorithm::kCpm)]
                  .count,
              0U);
    EXPECT_EQ(stats.by_algorithm[static_cast<std::size_t>(Algorithm::kEven)]
                  .count,
              0U);
    EXPECT_TRUE(stats.extras.empty()) << stats.extras.begin()->first;

    EXPECT_THROW(parse_partition_reply("ERR kaput"), fpm::Error);
    EXPECT_THROW(parse_partition_reply("OK PONG"), fpm::Error);
}

TEST(RequestEngineTest, MatchesDirectLibraryCallBitForBit) {
    ModelRegistry registry;
    const auto set = registry.put("hybrid", synthetic_models(4, 24, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 32});

    for (const Algorithm algorithm :
         {Algorithm::kFpm, Algorithm::kCpm, Algorithm::kEven}) {
        for (const bool with_layout : {true, false}) {
            const PartitionRequest request{"hybrid", 48, algorithm,
                                           with_layout};
            const auto response = engine.execute(request);
            const PartitionPlan direct = RequestEngine::compute_plan(
                *set, request.n, algorithm, with_layout);

            ASSERT_NE(response.plan, nullptr);
            EXPECT_EQ(response.plan->blocks, direct.blocks);
            EXPECT_EQ(response.plan->balanced_time, direct.balanced_time);
            EXPECT_EQ(response.plan->makespan, direct.makespan);
            EXPECT_EQ(response.plan->comm_cost, direct.comm_cost);
            EXPECT_EQ(response.plan->generation, set->generation);
            ASSERT_EQ(response.plan->layout.rects.size(),
                      direct.layout.rects.size());
            for (std::size_t i = 0; i < direct.layout.rects.size(); ++i) {
                EXPECT_EQ(response.plan->layout.rects[i].col0,
                          direct.layout.rects[i].col0);
                EXPECT_EQ(response.plan->layout.rects[i].row0,
                          direct.layout.rects[i].row0);
                EXPECT_EQ(response.plan->layout.rects[i].w,
                          direct.layout.rects[i].w);
                EXPECT_EQ(response.plan->layout.rects[i].h,
                          direct.layout.rects[i].h);
            }
            if (with_layout) {
                std::int64_t covered = 0;
                for (const auto blocks : response.plan->blocks) {
                    covered += blocks;
                }
                EXPECT_EQ(covered, request.n * request.n);
            }
        }
    }
}

/// The typed encoder's line for a served answer: what a client decodes
/// and what a served line must equal byte for byte.
std::string typed_partition_line(const PartitionRequest& request,
                                 const PartitionResponse& served) {
    Response response;
    response.kind = Response::Kind::kPartition;
    response.partition = make_partition_reply(request, served);
    return response.encode();
}

std::string served_partition_line(const PartitionRequest& request,
                                  const PartitionResponse& served) {
    std::string line;
    append_partition_line(line, request, served);
    return line;
}

TEST(RequestEngineTest, ServedLinesEqualTheTypedEncoderByteForByte) {
    // A served PARTITION line is a head plus the fields compute_plan()
    // stored on the plan.  On a miss, a hit and a degraded answer, on a
    // 6- and a 24-device set, for every algorithm with and without the
    // layout, it must equal the typed encoder's line.
    ModelRegistry registry;
    const auto six = registry.put("six", synthetic_models(6, 24, 1.0));
    registry.put("wide", synthetic_models(24, 24, 1.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 64});
    for (const char* set : {"six", "wide"}) {
        for (const Algorithm algorithm :
             {Algorithm::kFpm, Algorithm::kCpm, Algorithm::kEven}) {
            for (const bool with_layout : {true, false}) {
                const PartitionRequest request{set, 96, algorithm,
                                               with_layout};
                const PartitionResponse miss = engine.execute(request);
                ASSERT_FALSE(miss.cache_hit);
                EXPECT_EQ(served_partition_line(request, miss),
                          typed_partition_line(request, miss));
                const PartitionResponse hit = engine.execute(request);
                ASSERT_TRUE(hit.cache_hit);
                const std::string line = typed_partition_line(request, hit);
                EXPECT_EQ(served_partition_line(request, hit), line);
                EXPECT_NE(line.find(" cached=1 "), std::string::npos);

                Request wire;
                wire.kind = Request::Kind::kPartition;
                wire.partition = request;
                EXPECT_EQ(handle_line(engine, wire.encode()), line);
            }
        }
    }

    // A failed compute answers the even split of the current models.
    fault::install(fault::FaultPlan::parse("serve.compute=1"));
    const PartitionRequest request{"wide", 97, Algorithm::kFpm, true};
    const PartitionResponse degraded = engine.execute(request);
    fault::uninstall();
    ASSERT_TRUE(degraded.degraded);
    EXPECT_EQ(served_partition_line(request, degraded),
              typed_partition_line(request, degraded));

    // The direct library call stores the same fields as the engine.
    PartitionResponse direct;
    direct.plan = std::make_shared<const PartitionPlan>(
        RequestEngine::compute_plan(*six, 96, Algorithm::kFpm, true));
    EXPECT_EQ(direct.plan->reply_fields,
              engine.execute({"six", 96, Algorithm::kFpm, true})
                  .plan->reply_fields);

    // A hand-built plan carries no fields: it fails before writing.
    PartitionResponse bare;
    bare.plan = plan_of();
    std::string out = "kept";
    EXPECT_THROW(append_partition_line(out, request, bare), fpm::Error);
    EXPECT_EQ(out, "kept");
}

TEST(RequestEngineTest, CachesRepeatsAndTracksGenerations) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(3, 16, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 32});
    const PartitionRequest request{"hybrid", 40, Algorithm::kFpm, true};

    const auto cold = engine.execute(request);
    EXPECT_FALSE(cold.cache_hit);
    const auto warm = engine.execute(request);
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(warm.plan.get(), cold.plan.get());  // same shared plan

    auto stats = engine.stats();
    EXPECT_EQ(stats.requests, 2U);
    EXPECT_EQ(stats.computed, 1U);
    EXPECT_GE(stats.cache.hits, 1U);

    // Hot reload with different content: the old cache entry no longer
    // matches (fingerprint key), so the next request recomputes against
    // the new snapshot.
    registry.put("hybrid", synthetic_models(3, 16, 2.0));
    const auto reloaded = engine.execute(request);
    EXPECT_FALSE(reloaded.cache_hit);
    EXPECT_GT(reloaded.plan->generation, cold.plan->generation);

    // Reload with *identical* content keeps the cache warm.
    registry.put("hybrid", synthetic_models(3, 16, 2.0));
    const auto still_warm = engine.execute(request);
    EXPECT_TRUE(still_warm.cache_hit);
}

TEST(RequestEngineTest, RejectsBadRequests) {
    ModelRegistry registry;
    registry.put("ok", synthetic_models(2, 8, 1.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 4});
    EXPECT_THROW(engine.execute({"missing", 10, Algorithm::kFpm, true}),
                 fpm::Error);
    EXPECT_THROW(engine.execute({"ok", 0, Algorithm::kFpm, true}), fpm::Error);
    EXPECT_THROW(engine.execute({"ok", -3, Algorithm::kFpm, true}), fpm::Error);
}

TEST(RequestEngineTest, PoolBoundsOverlappingComputesOfOneKey) {
    ModelRegistry registry;
    // Expensive models so the first tasks genuinely overlap.
    const auto set = registry.put("big", synthetic_models(6, 600, 1.0));
    constexpr unsigned kWorkers = 4;
    RequestEngine engine(registry,
                         {.workers = kWorkers, .cache_capacity = 32});

    constexpr std::size_t kRequests = 16;
    const PartitionRequest request{"big", 64, Algorithm::kFpm, true};
    std::vector<std::promise<RequestEngine::AsyncResult>> done(kRequests);
    std::vector<std::future<RequestEngine::AsyncResult>> results;
    for (auto& promise : done) {
        results.push_back(promise.get_future());
    }
    for (auto& promise : done) {
        engine.submit_async(request,
                            [&promise](RequestEngine::AsyncResult result) {
                                promise.set_value(std::move(result));
                            });
    }

    const PartitionPlan direct =
        RequestEngine::compute_plan(*set, 64, Algorithm::kFpm, true);
    for (auto& result : results) {
        const RequestEngine::AsyncResult outcome = result.get();
        ASSERT_TRUE(outcome.ok()) << outcome.error;
        const PartitionPlan& plan = *outcome.response.plan;
        EXPECT_FALSE(outcome.response.degraded);
        EXPECT_EQ(plan.blocks, direct.blocks);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(plan.balanced_time),
                  std::bit_cast<std::uint64_t>(direct.balanced_time));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(plan.makespan),
                  std::bit_cast<std::uint64_t>(direct.makespan));
        EXPECT_EQ(plan.comm_cost, direct.comm_cost);
        ASSERT_EQ(plan.layout.rects.size(), direct.layout.rects.size());
        for (std::size_t i = 0; i < direct.layout.rects.size(); ++i) {
            EXPECT_EQ(plan.layout.rects[i].col0, direct.layout.rects[i].col0);
            EXPECT_EQ(plan.layout.rects[i].row0, direct.layout.rects[i].row0);
            EXPECT_EQ(plan.layout.rects[i].w, direct.layout.rects[i].w);
            EXPECT_EQ(plan.layout.rects[i].h, direct.layout.rects[i].h);
        }
    }

    // Every task looks the cache up when it starts, and a worker takes
    // its next task only after caching its compute, so no more computes
    // of one key overlap than there are workers; every other request
    // hits.
    const auto stats = engine.stats();
    EXPECT_EQ(stats.requests, kRequests);
    EXPECT_GE(stats.computed, 1U);
    EXPECT_LE(stats.computed, kWorkers);
    EXPECT_EQ(stats.computed + stats.cache.hits, kRequests);
    EXPECT_EQ(stats.latency_by_algorithm[static_cast<std::size_t>(
                  Algorithm::kFpm)].count,
              kRequests);
    EXPECT_EQ(stats.latency_by_algorithm[static_cast<std::size_t>(
                  Algorithm::kCpm)].count,
              0U);
}

TEST(RequestEngineTest, SubmitRunsOnPool) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(3, 16, 1.0));
    RequestEngine engine(registry, {.workers = 4, .cache_capacity = 32});

    std::vector<std::promise<RequestEngine::AsyncResult>> done(24);
    for (int i = 0; i < 24; ++i) {
        engine.submit_async(
            {"hybrid", 16 + (i % 6) * 8, Algorithm::kFpm, true},
            [&promise = done[static_cast<std::size_t>(i)]](
                RequestEngine::AsyncResult result) {
                promise.set_value(std::move(result));
            });
    }
    for (auto& promise : done) {
        const auto result = promise.get_future().get();
        ASSERT_TRUE(result.ok()) << result.error;
        ASSERT_NE(result.response.plan, nullptr);
        EXPECT_GT(result.response.plan->makespan, 0.0);
    }
    EXPECT_EQ(engine.stats().requests, 24U);
}

TEST(RequestEngineTest, DestructionFinishesInFlightWorkAgainstLiveMembers) {
    struct FaultGuard {
        ~FaultGuard() { fault::uninstall(); }
    } guard;
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(3, 16, 1.0));
    auto& compute = fault::point("serve.compute");
    const std::uint64_t evaluated = compute.evaluated();
    fault::install(fault::FaultPlan::parse("serve.compute=1:delay:100"));

    std::promise<RequestEngine::AsyncResult> done;
    {
        RequestEngine engine(registry, {.workers = 1, .cache_capacity = 8});
        engine.submit_async({"hybrid", 24, Algorithm::kFpm, true},
                            [&done](RequestEngine::AsyncResult result) {
                                done.set_value(std::move(result));
                            });
        while (compute.evaluated() == evaluated) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }  // destroyed while the compute sleeps in its fault point
    const auto result = done.get_future().get();
    EXPECT_TRUE(result.ok()) << result.error;
}

// ---------------------------------------------------------------------------
// Acceptance integration: socket server, >= 32 concurrent requests over
// two model sets, bit-for-bit agreement with the direct library call,
// cache hits > 0 and warm queries measurably faster than cold ones.
// ---------------------------------------------------------------------------
TEST(ServeIntegration, ConcurrentClientsMatchDirectLibraryCalls) {
    const std::string alpha_csv = "/tmp/fpmpart_serve_alpha.csv";
    const std::string beta_csv = "/tmp/fpmpart_serve_beta.csv";
    core::save_speed_functions_csv(alpha_csv, synthetic_models(4, 200, 1.0));
    core::save_speed_functions_csv(beta_csv, synthetic_models(3, 200, 1.7));

    ModelRegistry registry;
    registry.load_csv("alpha", alpha_csv);
    registry.load_csv("beta", beta_csv);
    RequestEngine engine(registry, {.workers = 4, .cache_capacity = 256});
    SocketServer server(engine);
    server.start();
    ASSERT_GT(server.port(), 0);

    constexpr std::size_t kClients = 32;
    const std::int64_t ns[] = {24, 30, 36, 42, 48, 54, 60, 66};
    const Algorithm algorithms[] = {Algorithm::kFpm, Algorithm::kCpm,
                                    Algorithm::kEven};
    std::vector<PartitionReply> replies(kClients);
    std::vector<PartitionRequest> requests(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
        requests[i] = PartitionRequest{(i % 2 == 0) ? "alpha" : "beta",
                                       ns[i % 8], algorithms[i % 3], true};
    }

    fpm::test::run_concurrently(kClients, [&](std::size_t i) {
        ServeClient client("127.0.0.1", server.port());
        replies[i] = client.partition(requests[i]);
    });

    // Every wire response must equal the direct library call bit-for-bit.
    for (std::size_t i = 0; i < kClients; ++i) {
        const auto set = registry.get(requests[i].model_set);
        const PartitionPlan direct = RequestEngine::compute_plan(
            *set, requests[i].n, requests[i].algorithm, true);
        const PartitionReply& reply = replies[i];
        EXPECT_EQ(reply.model, requests[i].model_set) << i;
        EXPECT_EQ(reply.generation, set->generation) << i;
        EXPECT_EQ(reply.blocks, direct.blocks) << i;
        EXPECT_EQ(reply.balanced_time, direct.balanced_time) << i;
        EXPECT_EQ(reply.makespan, direct.makespan) << i;
        EXPECT_EQ(reply.comm_cost, direct.comm_cost) << i;
        ASSERT_EQ(reply.rects.size(), direct.layout.rects.size()) << i;
        for (std::size_t r = 0; r < reply.rects.size(); ++r) {
            EXPECT_EQ(reply.rects[r].col0, direct.layout.rects[r].col0);
            EXPECT_EQ(reply.rects[r].row0, direct.layout.rects[r].row0);
            EXPECT_EQ(reply.rects[r].w, direct.layout.rects[r].w);
            EXPECT_EQ(reply.rects[r].h, direct.layout.rects[r].h);
        }
    }
    EXPECT_GE(server.connections_accepted(), kClients);

    // The 32 requests covered 24 distinct (set, n, algo) combinations; a
    // second identical pass over one connection must be served from the
    // cache and report it.
    const auto before = engine.stats();
    {
        ServeClient client("127.0.0.1", server.port());
        for (std::size_t i = 0; i < kClients; ++i) {
            const PartitionReply warm = client.partition(requests[i]);
            EXPECT_TRUE(warm.cached) << i;
            EXPECT_EQ(warm.blocks, replies[i].blocks) << i;
        }
    }
    const auto after = engine.stats();
    EXPECT_GT(after.cache.hits, before.cache.hits);
    EXPECT_GT(after.cache.hits, 0U);

    // Warm queries must be measurably faster than cold ones: time a
    // batch of never-seen sizes against the same batch repeated.
    const std::int64_t cold_ns[] = {25, 31, 37, 43, 49, 55, 61, 67};
    measure::WallTimer timer;
    for (const std::int64_t n : cold_ns) {
        engine.execute({"alpha", n, Algorithm::kFpm, true});
    }
    const double cold_seconds = timer.elapsed();
    double warm_seconds = std::numeric_limits<double>::infinity();
    for (int repeat = 0; repeat < 3; ++repeat) {  // min over repeats
        timer.reset();
        for (const std::int64_t n : cold_ns) {
            const auto warm = engine.execute({"alpha", n, Algorithm::kFpm,
                                              true});
            EXPECT_TRUE(warm.cache_hit);
        }
        warm_seconds = std::min(warm_seconds, timer.elapsed());
    }
    EXPECT_LT(warm_seconds * 2.0, cold_seconds)
        << "cold=" << cold_seconds << "s warm=" << warm_seconds << "s";

    server.stop();
    EXPECT_FALSE(server.running());
    std::remove(alpha_csv.c_str());
    std::remove(beta_csv.c_str());
}

TEST(ServeIntegration, WireLoadStatsAndQuit) {
    const std::string csv = "/tmp/fpmpart_serve_load.csv";
    core::save_speed_functions_csv(csv, synthetic_models(2, 12, 1.0));

    ModelRegistry registry;
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 16});
    SocketServer server(engine);
    server.start();

    ServeClient client("127.0.0.1", server.port());
    client.ping();

    // Hot-load a model set over the wire, then use it.
    const std::string loaded = client.request("LOAD wired " + csv);
    EXPECT_EQ(loaded.rfind("OK LOADED name=wired models=2", 0), 0U) << loaded;
    const PartitionReply reply =
        client.partition({"wired", 20, Algorithm::kFpm, true});
    EXPECT_EQ(reply.blocks.size(), 2U);

    // Typed STATS round trip: the hot-loaded registry entry is counted.
    const ServerStats stats = client.stats();
    EXPECT_EQ(stats.models, 1U);
    EXPECT_EQ(stats.reactors, 1U);

    // Malformed input answers ERR but keeps the connection usable.
    EXPECT_EQ(client.request("PARTITION nope 10 fpm").rfind("ERR ", 0), 0U);
    client.ping();

    EXPECT_EQ(client.request("QUIT"), "OK BYE");
    EXPECT_THROW(client.request("PING"), fpm::Error);  // server hung up

    server.stop();
    std::remove(csv.c_str());
}

TEST(ServeIntegration, WireRejectsWorkloadAboveTheBound) {
    ModelRegistry registry;
    registry.put("big", synthetic_models(2, 8, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 4});
    SocketServer server(engine);
    server.start();

    ServeClient client("127.0.0.1", server.port());
    // The check's message alone: no expression, source path or function.
    EXPECT_EQ(client.request("PARTITION big 67108865 fpm"),
              "ERR bad_request workload size exceeds 2^26: 67108865");
    client.ping();  // the connection stays open

    server.stop();
}

/// `devices` copies of one device whose speed function ends at
/// `capacity` blocks.
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

TEST(ServeIntegration, WireCapacityShortfallAnswersTypedError) {
    ModelRegistry registry;
    registry.put("g", bounded_models(3, 1000.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 16});
    SocketServer server(engine);
    server.start();

    ServeClient client("127.0.0.1", server.port());
    // n = 40 is 1600 blocks: three 1000-block devices hold it.
    const PartitionReply fits =
        parse_partition_reply(client.request("PARTITION g 40 fpm"));
    EXPECT_FALSE(fits.degraded);

    // Reloaded with 300-block devices, 900 blocks cannot hold 1600, and
    // neither can an even split: a typed error, never the plan computed
    // for the previous generation.
    registry.put("g", bounded_models(3, 300.0));
    EXPECT_EQ(client.request("PARTITION g 40 fpm"),
              "ERR internal combined device capacity cannot hold the "
              "requested workload");
    client.ping();  // the connection stays usable
    EXPECT_FALSE(parse_partition_reply(client.request("PARTITION g 20 fpm"))
                     .degraded);  // 400 blocks fit
    EXPECT_EQ(engine.stats().degraded, 0U);

    server.stop();
}

TEST(ServeIntegration, WireLoadRefusesASetPastTheDeviceBound) {
    const std::string too_many = "/tmp/fpmpart_serve_too_many.csv";
    const std::string largest = "/tmp/fpmpart_serve_largest.csv";
    core::save_speed_functions_csv(too_many,
                                   synthetic_models(kMaxDevices + 1, 8, 1.0));
    core::save_speed_functions_csv(largest,
                                   synthetic_models(kMaxDevices, 8, 1.0));

    ModelRegistry registry;
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 4});
    SocketServer server(engine);
    server.start();

    ServeClient client("127.0.0.1", server.port());
    EXPECT_EQ(client.request("LOAD big " + too_many),
              "ERR bad_request model set holds 1025 devices, more than 1024");
    client.ping();  // the connection stays usable
    EXPECT_EQ(registry.size(), 0U);

    // The largest admissible set plans at the largest n, and the reply,
    // layout included, reaches the client: ServeClient refuses a line
    // over kMaxLineBytes.
    EXPECT_EQ(client.request("LOAD big " + largest)
                  .rfind("OK LOADED name=big models=1024 ", 0),
              0U);
    const std::string line = client.request("PARTITION big 67108864 fpm");
    EXPECT_LT(line.size(), kMaxLineBytes / 8) << line.substr(0, 80);
    const PartitionReply reply = parse_partition_reply(line);
    EXPECT_EQ(reply.blocks.size(), kMaxDevices);
    EXPECT_EQ(reply.rects.size(), kMaxDevices);

    server.stop();
    std::remove(too_many.c_str());
    std::remove(largest.c_str());
}

// A model file must be a regular file.  LOAD refuses a device and a FIFO
// at once, before reading a byte, with the same class of ERR an
// unopenable path gets, and the registry keeps what it held: reading
// /dev/zero would never end, and opening a FIFO would wait for a writer.
TEST(ServeIntegration, WireLoadRefusesAFileThatIsNotRegular) {
    const std::string fifo = ::testing::TempDir() + "fpmpart_serve_models.fifo";
    std::remove(fifo.c_str());
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);

    ModelRegistry registry;
    registry.put("alpha", synthetic_models(2, 8, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 4});
    SocketServer server(engine);
    server.start();
    ServeClient client("127.0.0.1", server.port());
    const std::string models = client.request("MODELS");

    measure::WallTimer timer;
    for (const std::string& path : {std::string("/dev/zero"), fifo}) {
        EXPECT_EQ(client.request("LOAD alpha " + path),
                  "ERR internal model file is not a regular file: " + path);
        EXPECT_EQ(client.request("MODELS"), models);
    }
    EXPECT_EQ(client.request("LOAD alpha /nonexistent/models.csv"),
              "ERR internal cannot open model file: /nonexistent/models.csv");
    EXPECT_LT(timer.elapsed(), 2.0);
    EXPECT_EQ(client.request("MODELS"), models);

    server.stop();
    std::remove(fifo.c_str());
}

/// Binds a loopback listener on an ephemeral port (never accepts unless
/// the test does so itself); returns {fd, port}.
std::pair<int, std::uint16_t> loopback_listener() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::listen(fd, 4), 0);
    socklen_t len = sizeof addr;
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    return {fd, ntohs(addr.sin_port)};
}

TEST(ServeClientTest, RecvTimeoutOnServerThatAcceptsButNeverReplies) {
    const auto [fd, port] = loopback_listener();

    ServeConfig config;
    config.connect_timeout = 2.0;
    config.recv_timeout = 0.2;
    ServeClient client("127.0.0.1", port, config);  // lands in the backlog

    measure::WallTimer timer;
    try {
        (void)client.request("PING");
        FAIL() << "expected a timeout error";
    } catch (const fpm::Error& e) {
        EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
            << e.what();
    }
    EXPECT_LT(timer.elapsed(), 2.0);  // bounded, not hanging forever
    ::close(fd);
}

TEST(ServeClientTest, RejectsProtocolVersionMismatch) {
    const auto [fd, port] = loopback_listener();
    std::thread impostor([fd = fd]() {
        const int conn = ::accept(fd, nullptr, nullptr);
        if (conn < 0) {
            return;
        }
        char buffer[256];
        (void)::recv(conn, buffer, sizeof buffer, 0);
        const char reply[] = "OK PONG v1\n";
        (void)::send(conn, reply, sizeof reply - 1, MSG_NOSIGNAL);
        ::close(conn);
    });

    ServeClient client("127.0.0.1", port);
    try {
        client.ping();
        FAIL() << "expected a protocol version error";
    } catch (const fpm::Error& e) {
        EXPECT_NE(std::string(e.what()).find("protocol version mismatch"),
                  std::string::npos)
            << e.what();
    }
    impostor.join();
    ::close(fd);
}

TEST(ServeClientTest, LateReplyNeverAnswersTheNextRequest) {
    // The server answers the first line only after the client gave up on
    // it.  The client must drop that connection, so the late reply can
    // not be read as the answer to the next request, and must not re-send
    // the failed one.
    const auto [fd, port] = loopback_listener();
    std::atomic<bool> late_reply_sent{false};
    std::vector<std::string> received;
    std::thread server([fd = fd, &late_reply_sent, &received]() {
        int conn = -1;
        std::string pending;
        while (received.size() < 2) {
            if (conn < 0 && (conn = ::accept(fd, nullptr, nullptr)) < 0) {
                return;
            }
            char buffer[256];
            const ssize_t got = ::recv(conn, buffer, sizeof buffer, 0);
            if (got <= 0) {  // the client hung up: serve its next connection
                ::close(conn);
                conn = -1;
                pending.clear();
                continue;
            }
            pending.append(buffer, static_cast<std::size_t>(got));
            for (std::size_t eol; (eol = pending.find('\n')) != std::string::npos;) {
                received.push_back(pending.substr(0, eol));
                pending.erase(0, eol + 1);
                const bool first = received.size() == 1;
                if (first) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(300));
                }
                const std::string reply = "OK REPLY-TO " + received.back() + "\n";
                (void)::send(conn, reply.data(), reply.size(), MSG_NOSIGNAL);
                if (first) {
                    late_reply_sent = true;
                }
            }
        }
        ::close(conn);
    });

    ServeConfig config;
    config.recv_timeout = 0.1;
    ServeClient client("127.0.0.1", port, config);
    EXPECT_THROW((void)client.request("FIRST"), TransportError);
    for (int i = 0; i < 1000 && !late_reply_sent; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(client.request("SECOND"), "OK REPLY-TO SECOND");
    server.join();
    EXPECT_EQ(received, (std::vector<std::string>{"FIRST", "SECOND"}));
    ::close(fd);
}

TEST(ServeIntegration, ExportsChromeTraceOfServedRequests) {
    const std::string trace_path = "/tmp/fpmpart_serve_trace.json";
    std::remove(trace_path.c_str());
    obs::enable_tracing(trace_path);
    {
        ModelRegistry registry;
        registry.put("traced", synthetic_models(3, 32, 1.0));
        RequestEngine engine(registry, {.workers = 2, .cache_capacity = 16});
        for (int i = 0; i < 4; ++i) {
            engine.execute({"traced", 24 + 4 * i, Algorithm::kFpm, true});
        }
        engine.execute({"traced", 24, Algorithm::kFpm, true});  // cache hit
    }
    obs::flush_trace();
    obs::disable_tracing();

    std::ifstream in(trace_path);
    ASSERT_TRUE(in.is_open()) << trace_path;
    std::stringstream content;
    content << in.rdbuf();
    const std::string json = content.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("serve.execute"), std::string::npos);
    EXPECT_NE(json.find("serve.compute"), std::string::npos);
    EXPECT_NE(json.find("part.fpm_partition"), std::string::npos);
    std::remove(trace_path.c_str());
}

TEST(ServeIntegration, ClientReportsRoundTripTime) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(2, 8, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 16});
    SocketServer server(engine);
    server.start();

    ServeClient client("127.0.0.1", server.port());
    EXPECT_EQ(client.last_rtt_seconds(), 0.0);  // nothing measured yet

    measure::WallTimer timer;
    client.ping();
    const double outer = timer.elapsed();
    const double ping_rtt = client.last_rtt_seconds();
    EXPECT_GT(ping_rtt, 0.0);
    // The start/stop hug the socket round trip, so the outer timer —
    // which also covers encode/decode — can only read larger.
    EXPECT_LE(ping_rtt, outer);

    // Server-side time is part of the measurement: a 30 ms delay
    // injected into the compute path puts a hard floor under the RTT.
    fault::install(fault::FaultPlan::parse("seed=1,serve.compute=1:delay:30"));
    (void)client.partition({"hybrid", 48, Algorithm::kFpm, true});
    fault::uninstall();
    EXPECT_GE(client.last_rtt_seconds(), 0.030);

    server.stop();
}

} // namespace
} // namespace fpm::serve
