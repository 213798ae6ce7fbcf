// Round-trip and fuzz-ish decode coverage for every v4 protocol message
// type (FEEDBACK and the adapt_* STATS fields arrived in v4; a v3 `OK
// PONG v3` line must still decode so version mismatches surface as a
// typed error, not a parse failure).  The wire spec these tests pin down is docs/protocol.md; the
// invariant under fuzzing is that decode() either succeeds or throws
// fpm::Error — truncated, oversized or garbage input must never crash,
// hang, or escape as a different exception type.  The codec suites hold
// the decoders to the iostream decoders they replaced, outcome for
// outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "fpm/common/error.hpp"
#include "fpm/common/rng.hpp"
#include "fpm/core/speed_function.hpp"
#include "fpm/obs/metrics.hpp"
#include "fpm/serve/protocol.hpp"

namespace {

using namespace fpm;
using namespace fpm::serve;

// Decoding `line` must either produce a value or throw fpm::Error.
// Returns true when it decoded.
bool request_decodes(const std::string& line) {
    try {
        (void)Request::decode(line);
        return true;
    } catch (const Error&) {
        return false;
    }
}

bool response_decodes(const std::string& line) {
    try {
        (void)Response::decode(line);
        return true;
    } catch (const Error&) {
        return false;
    }
}

PartitionReply sample_partition_reply(bool degraded, bool with_rects) {
    PartitionReply reply;
    reply.model = "hybrid";
    reply.generation = 7;
    reply.n = 640;
    reply.algorithm = Algorithm::kFpm;
    reply.cached = true;
    reply.degraded = degraded;
    reply.balanced_time = 0.12345678901234567;
    reply.makespan = 1e-9;
    reply.comm_cost = 4242;
    reply.blocks = {100, 250, 290};
    if (with_rects) {
        reply.rects = {part::Rect{0, 0, 100, 640}, part::Rect{100, 0, 250, 640},
                       part::Rect{350, 0, 290, 640}};
    }
    return reply;
}

// ---------------------------------------------------------------------------
// Request round trips
// ---------------------------------------------------------------------------

TEST(ProtocolRequest, EveryKindRoundTrips) {
    std::vector<Request> requests;

    Request ping;  // default
    requests.push_back(ping);

    Request quit;
    quit.kind = Request::Kind::kQuit;
    requests.push_back(quit);

    Request stats;
    stats.kind = Request::Kind::kStats;
    requests.push_back(stats);

    Request health;
    health.kind = Request::Kind::kHealth;
    requests.push_back(health);

    Request models;
    models.kind = Request::Kind::kModels;
    requests.push_back(models);

    Request load;
    load.kind = Request::Kind::kLoad;
    load.name = "hybrid";
    load.path = "/tmp/models.csv";
    requests.push_back(load);

    Request partition;
    partition.kind = Request::Kind::kPartition;
    partition.partition.model_set = "hybrid";
    partition.partition.n = 512;
    partition.partition.algorithm = Algorithm::kCpm;
    requests.push_back(partition);

    Request nolayout = partition;
    nolayout.partition.with_layout = false;
    nolayout.partition.algorithm = Algorithm::kEven;
    requests.push_back(nolayout);

    Request largest = partition;
    largest.partition.n = part::kMaxN;
    requests.push_back(largest);

    Request feedback;
    feedback.kind = Request::Kind::kFeedback;
    feedback.feedback.model_set = "hybrid";
    feedback.feedback.device = 2;
    feedback.feedback.problem_size = 1536.5;
    feedback.feedback.seconds = 0.12345678901234567;
    requests.push_back(feedback);

    for (const Request& request : requests) {
        const std::string line = request.encode();
        const Request decoded = Request::decode(line);
        EXPECT_EQ(decoded.kind, request.kind) << line;
        EXPECT_EQ(decoded.encode(), line) << line;
    }
}

TEST(ProtocolRequest, RejectsMalformedLines) {
    const std::vector<std::string> bad = {
        "",
        "   ",
        "BOGUS",
        "PING extra",
        "QUIT now",
        "STATS verbose",
        "HEALTH deep",
        "MODELS all",
        "LOAD onlyname",
        "LOAD name path extra",
        "PARTITION",
        "PARTITION set",
        "PARTITION set 10",
        "PARTITION set 10 wat",
        "PARTITION set abc fpm",
        "PARTITION set 0 fpm",
        "PARTITION set -5 fpm",
        "PARTITION set 67108865 fpm",    // part::kMaxN + 1
        "PARTITION set 3037000500 fpm",  // n * n overflows int64
        "PARTITION set 10 fpm badopt",
        "PARTITION set 10 fpm nolayout extra",
        "partition set 10 fpm",  // verbs are case-sensitive
        "FEEDBACK",
        "FEEDBACK set",
        "FEEDBACK set 0 100",
        "FEEDBACK set 0 100 1.5 extra",
        "FEEDBACK set -1 100 1.5",   // negative device
        "FEEDBACK set 0 0 1.5",      // zero size
        "FEEDBACK set 0 100 0",      // zero time
        "FEEDBACK set 0 100 -2",     // negative time
        "FEEDBACK set 0 inf 1.5",    // non-finite size
        "FEEDBACK set 0 -inf 1.5",
        "FEEDBACK set 0 infinity 1.5",
        "FEEDBACK set 0 nan 1.5",
        "FEEDBACK set 0 100 inf",    // non-finite time
        "FEEDBACK set 0 100 -inf",
        "FEEDBACK set 0 100 infinity",
        "FEEDBACK set 0 100 nan",
        "FEEDBACK set zero 100 1.5", // non-numeric device
        "feedback set 0 100 1.5",
    };
    for (const std::string& line : bad) {
        EXPECT_FALSE(request_decodes(line)) << "accepted: " << line;
    }
}

TEST(ProtocolRequest, FeedbackDoublesRoundTripBitForBit) {
    Request request;
    request.kind = Request::Kind::kFeedback;
    request.feedback.model_set = "hybrid";
    request.feedback.device = 1;
    request.feedback.problem_size = 0.1 + 0.2;  // not exactly 0.3
    request.feedback.seconds = 1.0 / 3.0;
    const Request decoded = Request::decode(request.encode());
    EXPECT_EQ(decoded.feedback.model_set, "hybrid");
    EXPECT_EQ(decoded.feedback.device, 1);
    EXPECT_EQ(decoded.feedback.problem_size, request.feedback.problem_size);
    EXPECT_EQ(decoded.feedback.seconds, request.feedback.seconds);
    EXPECT_EQ(decoded.encode(), request.encode());
}

// ---------------------------------------------------------------------------
// Response round trips
// ---------------------------------------------------------------------------

TEST(ProtocolResponse, ErrorRoundTrips) {
    const Response error =
        Response::make_error(ErrorCode::kInternal, "it\nbroke\rbadly");
    const std::string line = error.encode();
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const Response decoded = Response::decode(line);
    EXPECT_EQ(decoded.kind, Response::Kind::kError);
    EXPECT_EQ(decoded.error, "it broke badly");
}

TEST(ProtocolResponse, PongByeRoundTrip) {
    Response pong;
    pong.kind = Response::Kind::kPong;
    pong.version = kProtocolVersion;
    const Response decoded_pong = Response::decode(pong.encode());
    EXPECT_EQ(decoded_pong.kind, Response::Kind::kPong);
    EXPECT_EQ(decoded_pong.version, kProtocolVersion);

    Response bye;
    bye.kind = Response::Kind::kBye;
    EXPECT_EQ(Response::decode(bye.encode()).kind, Response::Kind::kBye);
}

TEST(ProtocolResponse, LoadedRoundTrips) {
    Response loaded;
    loaded.kind = Response::Kind::kLoaded;
    loaded.loaded.name = "hybrid";
    loaded.loaded.models = 5;
    loaded.loaded.generation = 12;
    loaded.loaded.fingerprint = 0xdeadbeefcafef00dULL;
    const Response decoded = Response::decode(loaded.encode());
    EXPECT_EQ(decoded.kind, Response::Kind::kLoaded);
    EXPECT_EQ(decoded.loaded.name, "hybrid");
    EXPECT_EQ(decoded.loaded.models, 5u);
    EXPECT_EQ(decoded.loaded.generation, 12u);
    EXPECT_EQ(decoded.loaded.fingerprint, 0xdeadbeefcafef00dULL);
}

TEST(ProtocolResponse, ModelsRoundTripsEmptyAndFull) {
    Response empty;
    empty.kind = Response::Kind::kModels;
    const Response decoded_empty = Response::decode(empty.encode());
    EXPECT_EQ(decoded_empty.kind, Response::Kind::kModels);
    EXPECT_TRUE(decoded_empty.sets.empty());

    Response full;
    full.kind = Response::Kind::kModels;
    full.sets = {ModelSetInfo{"cpu", 1, 2}, ModelSetInfo{"hybrid", 9, 4}};
    const Response decoded = Response::decode(full.encode());
    ASSERT_EQ(decoded.sets.size(), 2u);
    EXPECT_EQ(decoded.sets[0].name, "cpu");
    EXPECT_EQ(decoded.sets[1].generation, 9u);
    EXPECT_EQ(decoded.sets[1].models, 4u);
}

TEST(ProtocolResponse, StatsRoundTrips) {
    Response stats;
    stats.kind = Response::Kind::kStats;
    stats.fields = {{"requests", "10"}, {"q2r_p50_us", "1.5"}, {"empty", ""}};
    const Response decoded = Response::decode(stats.encode());
    ASSERT_EQ(decoded.fields.size(), 3u);
    EXPECT_EQ(decoded.fields[0].name, "requests");
    EXPECT_EQ(decoded.fields[0].value, "10");
    EXPECT_EQ(decoded.fields[2].value, "");
}

TEST(ProtocolResponse, HealthRoundTrips) {
    ServerHealth sent;
    sent.live = true;
    sent.ready = false;
    sent.models = 0;
    sent.faults_injected = 42;
    sent.degraded = 7;
    Response health;
    health.kind = Response::Kind::kHealth;
    health.fields = sent.to_fields();
    const Response decoded = Response::decode(health.encode());
    EXPECT_EQ(decoded.kind, Response::Kind::kHealth);
    const ServerHealth got = ServerHealth::from_fields(decoded.fields);
    EXPECT_TRUE(got.live);
    EXPECT_FALSE(got.ready);
    EXPECT_EQ(got.models, 0u);
    EXPECT_EQ(got.faults_injected, 42u);
    EXPECT_EQ(got.degraded, 7u);
    EXPECT_TRUE(got.extras.empty());
}

TEST(ProtocolResponse, PartitionRoundTripsAllFlagCombinations) {
    for (const bool degraded : {false, true}) {
        for (const bool with_rects : {false, true}) {
            Response response;
            response.kind = Response::Kind::kPartition;
            response.partition = sample_partition_reply(degraded, with_rects);
            const std::string line = response.encode();
            const Response decoded = Response::decode(line);
            ASSERT_EQ(decoded.kind, Response::Kind::kPartition) << line;
            const PartitionReply& parsed = decoded.partition;
            EXPECT_EQ(parsed.model, "hybrid");
            EXPECT_EQ(parsed.generation, 7u);
            EXPECT_EQ(parsed.n, 640);
            EXPECT_EQ(parsed.algorithm, Algorithm::kFpm);
            EXPECT_TRUE(parsed.cached);
            EXPECT_EQ(parsed.degraded, degraded);
            // %.17g framing must round-trip doubles bit-for-bit.
            EXPECT_EQ(parsed.balanced_time, 0.12345678901234567);
            EXPECT_EQ(parsed.makespan, 1e-9);
            EXPECT_EQ(parsed.comm_cost, 4242);
            EXPECT_EQ(parsed.blocks,
                      (std::vector<std::int64_t>{100, 250, 290}));
            EXPECT_EQ(parsed.rects.size(), with_rects ? 3u : 0u);
            // Re-encoding the decode is the identity on the wire.
            Response again;
            again.kind = Response::Kind::kPartition;
            again.partition = parsed;
            EXPECT_EQ(again.encode(), line);
        }
    }
}

// ---------------------------------------------------------------------------
// Truncation, garbage and oversized payloads
// ---------------------------------------------------------------------------

TEST(ProtocolResponse, FeedbackRoundTripsAllFlagCombinations) {
    for (int mask = 0; mask < 8; ++mask) {
        Response response;
        response.kind = Response::Kind::kFeedback;
        response.feedback.model_set = "hybrid";
        response.feedback.device = 3;
        response.feedback.samples = 17;
        response.feedback.reliable = (mask & 1) != 0;
        response.feedback.drift = (mask & 2) != 0;
        response.feedback.republished = (mask & 4) != 0;
        response.feedback.version = 9;
        const std::string line = response.encode();
        EXPECT_EQ(line.rfind("OK FEEDBACK set=hybrid", 0), 0u) << line;
        const Response decoded = Response::decode(line);
        ASSERT_EQ(decoded.kind, Response::Kind::kFeedback) << line;
        EXPECT_EQ(decoded.feedback.model_set, "hybrid");
        EXPECT_EQ(decoded.feedback.device, 3);
        EXPECT_EQ(decoded.feedback.samples, 17u);
        EXPECT_EQ(decoded.feedback.reliable, response.feedback.reliable);
        EXPECT_EQ(decoded.feedback.drift, response.feedback.drift);
        EXPECT_EQ(decoded.feedback.republished, response.feedback.republished);
        EXPECT_EQ(decoded.feedback.version, 9u);
        EXPECT_EQ(decoded.encode(), line);
    }
}

TEST(ProtocolResponse, PreV4ErrorLinesDecodeAsTypedErrors) {
    // An ERR line whose first token this build does not know decodes to
    // kError as kInternal with the body kept, never throws.
    const Response response =
        Response::decode("ERR unknown command: FEEDBACK");
    EXPECT_EQ(response.kind, Response::Kind::kError);
    EXPECT_EQ(response.error_code, ErrorCode::kInternal);
    EXPECT_EQ(response.error, "unknown command: FEEDBACK");
}

TEST(ProtocolFuzz, EveryPrefixOfValidEncodingsIsHandled) {
    std::vector<std::string> lines;
    Request partition;
    partition.kind = Request::Kind::kPartition;
    partition.partition.model_set = "hybrid";
    partition.partition.n = 512;
    lines.push_back(partition.encode());
    Request load;
    load.kind = Request::Kind::kLoad;
    load.name = "a";
    load.path = "/p";
    lines.push_back(load.encode());
    Request feedback;
    feedback.kind = Request::Kind::kFeedback;
    feedback.feedback = {"hybrid", 1, 1024.0, 0.25};
    lines.push_back(feedback.encode());

    for (const std::string& line : lines) {
        for (std::size_t cut = 0; cut < line.size(); ++cut) {
            (void)request_decodes(line.substr(0, cut));  // must not crash
        }
    }

    std::vector<std::string> replies;
    Response part_reply;
    part_reply.kind = Response::Kind::kPartition;
    part_reply.partition = sample_partition_reply(true, true);
    replies.push_back(part_reply.encode());
    Response health;
    health.kind = Response::Kind::kHealth;
    health.fields = ServerHealth{}.to_fields();
    replies.push_back(health.encode());
    Response loaded;
    loaded.kind = Response::Kind::kLoaded;
    loaded.loaded.name = "x";
    replies.push_back(loaded.encode());
    Response models;
    models.kind = Response::Kind::kModels;
    models.sets = {ModelSetInfo{"cpu", 1, 2}};
    replies.push_back(models.encode());
    replies.push_back("OK PONG v3");  // v3 liveness line still decodes
    replies.push_back("OK STATS a=1 b=2");
    Response feedback_reply;
    feedback_reply.kind = Response::Kind::kFeedback;
    feedback_reply.feedback.model_set = "hybrid";
    feedback_reply.feedback.samples = 3;
    feedback_reply.feedback.reliable = true;
    replies.push_back(feedback_reply.encode());

    for (const std::string& line : replies) {
        EXPECT_TRUE(response_decodes(line)) << line;
        for (std::size_t cut = 0; cut < line.size(); ++cut) {
            (void)response_decodes(line.substr(0, cut));  // must not crash
        }
    }
}

TEST(ProtocolFuzz, GarbageNeverEscapesAsNonError) {
    Rng rng(0xfadedfacadeULL);
    const std::string alphabet =
        "OK ERR PARTITION=|,:-0123456789abcdefghijklmnopqrstuvwxyz \t\x01\x7f";
    for (int i = 0; i < 2000; ++i) {
        std::string line;
        const int length = static_cast<int>(rng.uniform_int(0, 120));
        for (int j = 0; j < length; ++j) {
            line += alphabet[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(alphabet.size()) - 1))];
        }
        (void)request_decodes(line);   // fpm::Error or success, never a crash
        (void)response_decodes(line);
    }
}

TEST(ProtocolFuzz, MutatedPartitionRepliesAreHandled) {
    Response response;
    response.kind = Response::Kind::kPartition;
    response.partition = sample_partition_reply(false, true);
    const std::string line = response.encode();

    Rng rng(42);
    for (int i = 0; i < 2000; ++i) {
        std::string mutated = line;
        const std::size_t pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(line.size()) - 1));
        mutated[pos] = static_cast<char>(rng.uniform_int(32, 126));
        (void)response_decodes(mutated);  // must not crash
    }
}

TEST(ProtocolFuzz, OversizedPayloadsRoundTripOrError) {
    // A huge (but well-formed) block list round-trips intact.
    Response big;
    big.kind = Response::Kind::kPartition;
    big.partition = sample_partition_reply(false, false);
    big.partition.blocks.assign(10'000, 1);
    const Response decoded = Response::decode(big.encode());
    EXPECT_EQ(decoded.partition.blocks.size(), 10'000u);

    // Numeric overflow in a reply field is an error, not UB.
    EXPECT_FALSE(response_decodes(
        "OK PARTITION model=m gen=1 n=999999999999999999999999999 algo=fpm "
        "cached=0 degraded=0 balanced=1 makespan=1 comm=1 blocks=1 "
        "layout=-"));

    // An absurdly long single token must not blow up the tokenizer.
    EXPECT_FALSE(request_decodes(std::string(1 << 16, 'A')));
}

TEST(ProtocolFuzz, WrongArityRepliesAreErrors) {
    const std::vector<std::string> bad = {
        "OK",
        "OK WHAT",
        "OK PONG",
        "OK PONG 3",        // missing the 'v'
        "OK BYE now",
        "OK LOADED name=x models=1 gen=1",              // missing fingerprint
        "OK MODELS count=2 sets=cpu:1:2",               // count mismatch
        "OK HEALTH live=1 ready=1 novalue",             // not key=value
        "OK PARTITION model=m gen=1 n=4 algo=fpm cached=0 coalesced=0 "
        "balanced=1 makespan=1 comm=1 blocks=1 layout=-",  // v2-era: no degraded
        "OK STATS novalue",
        "OK FEEDBACK set=s device=0 samples=1 reliable=0 drift=0 "
        "republished=0",  // missing version
        "OK FEEDBACK set=s device=0 samples=1 reliable=0 drift=0 "
        "republished=0 version=1 extra=1",
        "OK FEEDBACK set=s device=x samples=1 reliable=0 drift=0 "
        "republished=0 version=1",
    };
    for (const std::string& line : bad) {
        EXPECT_FALSE(response_decodes(line)) << "accepted: " << line;
    }
}

// ---------------------------------------------------------------------------
// Typed STATS: ServerStats::from_fields
// ---------------------------------------------------------------------------

TEST(ProtocolServerStats, FullStatsReplyParsesWithNoExtras) {
    // Every field the current revision emits must be *known* to the
    // typed parser: a field leaking into extras means make_stats_reply
    // and from_fields drifted apart.
    EngineStats engine;
    engine.requests = 12;
    engine.computed = 7;
    engine.degraded = 1;
    engine.cache.hits = 3;
    engine.cache.misses = 9;
    engine.cache.evictions = 4;
    engine.cache.size = 5;
    engine.cache_shards = 8;
    const Response encoded = make_stats_reply(engine, 2);
    const Response decoded = Response::decode(encoded.encode());
    ASSERT_EQ(decoded.kind, Response::Kind::kStats);

    const ServerStats stats = ServerStats::from_fields(decoded.fields);
    EXPECT_EQ(stats.requests, 12u);
    EXPECT_EQ(stats.computed, 7u);
    EXPECT_EQ(stats.degraded, 1u);
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.misses, 9u);
    EXPECT_EQ(stats.evictions, 4u);
    EXPECT_EQ(stats.cache_size, 5u);
    EXPECT_EQ(stats.cache_shards, 8u);
    EXPECT_EQ(stats.models, 2u);
    EXPECT_TRUE(stats.extras.empty()) << stats.extras.begin()->first;
}

TEST(ProtocolServerStats, UnknownFieldsArePreservedInExtras) {
    const std::vector<StatField> fields = {
        {"requests", "5"},
        {"some_future_field", "42"},
        {"another", "x=y-ish"},
    };
    const ServerStats stats = ServerStats::from_fields(fields);
    EXPECT_EQ(stats.requests, 5u);
    ASSERT_EQ(stats.extras.size(), 2u);
    EXPECT_EQ(stats.extras.at("some_future_field"), "42");
    EXPECT_EQ(stats.extras.at("another"), "x=y-ish");
}

TEST(ProtocolServerStats, MalformedKnownValuesThrow) {
    for (const StatField& bad :
         {StatField{"requests", "abc"}, StatField{"requests", ""},
          StatField{"q2r_p50_us", "fast"}, StatField{"open_conns", "1x"},
          StatField{"reactors", "-"}, StatField{"cache_shards", "four"}}) {
        EXPECT_THROW((void)ServerStats::from_fields({bad}), fpm::Error)
            << bad.name << "=" << bad.value;
    }
}

TEST(ProtocolFuzz, RandomStatFieldsNeverEscapeAsNonError) {
    Rng rng(0x57a757a75ULL);
    const std::vector<std::string> names = {
        "requests",  "computed",  "hits",        "reactors", "cache_shards",
        "open_conns", "q2r_p50_us", "mystery", "fpm_count", "adapt_samples"};
    const std::string alphabet = "0123456789.-+eXz ";
    for (int i = 0; i < 2000; ++i) {
        std::vector<StatField> fields;
        const int count = static_cast<int>(rng.uniform_int(0, 6));
        for (int f = 0; f < count; ++f) {
            std::string value;
            const int length = static_cast<int>(rng.uniform_int(0, 10));
            for (int j = 0; j < length; ++j) {
                value += alphabet[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(alphabet.size()) - 1))];
            }
            fields.push_back({names[static_cast<std::size_t>(rng.uniform_int(
                                  0,
                                  static_cast<std::int64_t>(names.size()) -
                                      1))],
                              value});
        }
        try {
            (void)ServerStats::from_fields(fields);
        } catch (const Error&) {
            // malformed known value: typed error, never a crash
        }
    }
}

// ---------------------------------------------------------------------------
// The STATS and HEALTH lines, byte for byte
// ---------------------------------------------------------------------------

/// Zeroes the registry, then gives every instrument STATS reads a
/// distinct value.
void set_registry_values() {
    auto& metrics = obs::MetricsRegistry::global();
    metrics.reset_values();
    metrics.gauge("serve.reactor.reactors").set(3);
    metrics.gauge("serve.reactor.open_connections").set(14);
    metrics.gauge("serve.reactor.buffered_bytes").set(4096);
    metrics.counter("serve.reactor.accepted").add(21);
    metrics.counter("serve.reactor.rejected").add(2);
    metrics.counter("serve.reactor.idle_timeouts").add(6);
    metrics.counter("serve.reactor.send_failures").add(1);
    metrics.counter("serve.reactor.pipelined").add(33);
    metrics.histogram("serve.reactor.queue_to_reply_seconds").record(0.000125);
    metrics.counter("adapt.samples").add(250);
    metrics.counter("adapt.reliable").add(12);
    metrics.counter("adapt.drift").add(4);
    metrics.counter("adapt.republished").add(3);
    metrics.gauge("adapt.model_version").set(19);
    metrics.counter("store.appended").add(27);
    metrics.counter("store.bytes").add(65536);
    metrics.counter("store.snapshots").add(5);
    metrics.histogram("store.fsync_seconds").record(0.0025);
    metrics.gauge("store.recovered_generation").set(11);
}

TEST(ProtocolWire, StatsLineIsPinned) {
    // Every field name, its order and its formatting are wire contract:
    // a distinct value in every engine field and registry instrument,
    // compared with the line the v7 encoder produces.
    set_registry_values();
    EngineStats engine;
    engine.requests = 101;
    engine.computed = 17;
    engine.degraded = 3;
    engine.cache.hits = 61;
    engine.cache.misses = 40;
    engine.cache.evictions = 9;
    engine.cache.size = 31;
    engine.cache_shards = 4;
    const double sums[] = {0.001953125, 0.0009765625, 0.00048828125};
    const std::uint64_t counts[] = {4, 2, 1};
    const double maxima[] = {0.0009765625, 0.00048828125, 0.000732421875};
    for (std::size_t i = 0; i < kAlgorithmCount; ++i) {
        auto& latency = engine.latency_by_algorithm[i];
        const double scale = static_cast<double>(i + 1);
        latency.count = counts[i];
        latency.sum = sums[i];
        latency.max = maxima[i];
        latency.p50 = 0.0001 * scale;
        latency.p95 = 0.0002 * scale + 0.00003;
        latency.p99 = 0.0004 * scale + 0.00007;
    }
    engine.role = "replica";
    engine.repl_source = "10.0.0.7:9111";
    engine.repl_lag_frames = 3;
    engine.repl_lag_seconds = 0.75;
    engine.repl_applied_generation = 9;

    EXPECT_EQ(
        make_stats_reply(engine, 2).encode(),
        "OK STATS requests=101 computed=17 hits=61 misses=40 "
        "evictions=9 cache_size=31 cache_shards=4 models=2 degraded=3 "
        "faults=0 mean_latency_us=488.28125 max_latency_us=976.5625 "
        "fpm_count=4 fpm_p50_us=100 fpm_p95_us=230 "
        "fpm_p99_us=470.00000000000006 cpm_count=2 cpm_p50_us=200 "
        "cpm_p95_us=430.00000000000006 cpm_p99_us=870 even_count=1 "
        "even_p50_us=300 even_p95_us=630 even_p99_us=1270 reactors=3 "
        "open_conns=14 buffered_bytes=4096 accepted=21 rejected=2 "
        "idle_timeouts=6 send_failures=1 pipelined=33 "
        "q2r_p50_us=125 q2r_p95_us=125 q2r_p99_us=125 adapt_samples=250 "
        "adapt_reliable=12 adapt_drift=4 adapt_republished=3 "
        "adapt_model_version=19 store_appended=27 store_bytes=65536 "
        "store_snapshots=5 store_fsync_p50_us=2500 store_fsync_p95_us=2500 "
        "store_fsync_p99_us=2500 recovered_generation=11 role=replica "
        "repl_lag_frames=3 repl_lag_seconds=0.75 repl_source=10.0.0.7:9111 "
        "repl_applied_generation=9");
    obs::MetricsRegistry::global().reset_values();
}

TEST(ProtocolWire, PartitionLineIsPinned) {
    // Every token, its order and its formatting are wire contract: the
    // v7 reply has 13 tokens, and the v6 form, which carried a
    // `coalesced=` token, no longer decodes.
    const std::string line =
        "OK PARTITION model=hybrid gen=7 n=640 algo=fpm cached=1 degraded=1 "
        "balanced=0.12345678901234566 makespan=1.0000000000000001e-09 "
        "comm=4242 blocks=100,250,290 "
        "layout=0:0:100:640|100:0:250:640|350:0:290:640";
    Response response;
    response.kind = Response::Kind::kPartition;
    response.partition = sample_partition_reply(true, true);
    EXPECT_EQ(response.encode(), line);
    EXPECT_EQ(Response::decode(line).encode(), line);

    response.partition = sample_partition_reply(false, false);
    response.partition.cached = false;
    EXPECT_EQ(response.encode(),
              "OK PARTITION model=hybrid gen=7 n=640 algo=fpm cached=0 "
              "degraded=0 balanced=0.12345678901234566 "
              "makespan=1.0000000000000001e-09 comm=4242 blocks=100,250,290 "
              "layout=-");

    EXPECT_FALSE(response_decodes(
        "OK PARTITION model=hybrid gen=7 n=640 algo=fpm cached=1 "
        "coalesced=0 degraded=1 balanced=0.12345678901234566 "
        "makespan=1.0000000000000001e-09 comm=4242 blocks=100,250,290 "
        "layout=-"));
}

TEST(ProtocolWire, HealthLineIsPinned) {
    set_registry_values();
    ModelRegistry registry;
    const core::SpeedFunction device({{1.0, 2.0}, {4.0, 3.0}}, "d0");
    registry.put("a", {device});
    registry.put("b", {device, device});
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 4});
    EXPECT_EQ(handle_line(engine, "HEALTH"),
              "OK HEALTH live=1 ready=1 models=2 faults=0 degraded=0 "
              "recovered_generation=11 role=primary repl_lag_frames=0 "
              "repl_lag_seconds=0 repl_source=- repl_applied_generation=0");

    engine.set_repl_source("10.0.0.7:9111");
    engine.record_repl_applied(4);
    EXPECT_EQ(handle_line(engine, "HEALTH"),
              "OK HEALTH live=1 ready=1 models=2 faults=0 degraded=0 "
              "recovered_generation=11 role=replica repl_lag_frames=0 "
              "repl_lag_seconds=0 repl_source=10.0.0.7:9111 "
              "repl_applied_generation=4");
    obs::MetricsRegistry::global().reset_values();
}

// ---------------------------------------------------------------------------
// Request fingerprints
// ---------------------------------------------------------------------------

TEST(ProtocolFingerprint, StableAndDiscriminating) {
    Request a;
    a.kind = Request::Kind::kPartition;
    a.partition.model_set = "hybrid";
    a.partition.n = 512;
    Request b = a;
    EXPECT_EQ(request_fingerprint(a), request_fingerprint(b));

    b.partition.n = 513;
    EXPECT_NE(request_fingerprint(a), request_fingerprint(b));

    Request ping;
    EXPECT_NE(request_fingerprint(a), request_fingerprint(ping));

    Request feedback;
    feedback.kind = Request::Kind::kFeedback;
    feedback.feedback = {"hybrid", 0, 100.0, 1.0};
    Request feedback2 = feedback;
    EXPECT_EQ(request_fingerprint(feedback), request_fingerprint(feedback2));
    feedback2.feedback.seconds = 2.0;
    EXPECT_NE(request_fingerprint(feedback), request_fingerprint(feedback2));
}

// ---------------------------------------------------------------------------
// The codec against its iostream predecessor
// ---------------------------------------------------------------------------

// The decoders as they were before they dropped iostreams, kept verbatim
// (istringstream tokens, strtoll/strtoull/strtod numbers, getline splits)
// as the reference the string_view decoders must agree with.
namespace reference {

std::vector<std::string> tokenize(const std::string& line) {
    std::vector<std::string> tokens;
    std::istringstream stream(line);
    std::string token;
    while (stream >> token) {
        tokens.push_back(token);
    }
    return tokens;
}

std::int64_t parse_int(const std::string& text, const char* what) {
    errno = 0;
    char* end = nullptr;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    FPM_CHECK(end != text.c_str() && *end == '\0' && errno == 0,
              std::string("malformed ") + what + ": " + text);
    return static_cast<std::int64_t>(value);
}

std::uint64_t parse_hex64(const std::string& text, const char* what) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 16);
    FPM_CHECK(end != text.c_str() && *end == '\0' && errno == 0,
              std::string("malformed ") + what + ": " + text);
    return static_cast<std::uint64_t>(value);
}

double parse_double(const std::string& text, const char* what) {
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    FPM_CHECK(end != text.c_str() && *end == '\0' && errno == 0,
              std::string("malformed ") + what + ": " + text);
    return value;
}

/// Splits `token` at the first '=' and checks the key.
std::string expect_kv(const std::string& token, const char* key) {
    const auto eq = token.find('=');
    FPM_CHECK(eq != std::string::npos &&
                  token.compare(0, eq, key) == 0,
              std::string("expected ") + key + "=..., got: " + token);
    return token.substr(eq + 1);
}

std::vector<std::string> split(const std::string& text, char sep) {
    std::vector<std::string> parts;
    std::string part;
    std::istringstream stream(text);
    while (std::getline(stream, part, sep)) {
        parts.push_back(part);
    }
    return parts;
}

Request decode_request(const std::string& line) {
    const auto tokens = tokenize(line);
    FPM_CHECK(!tokens.empty(), "empty request");
    const std::string& verb = tokens[0];

    Request request;
    if (verb == "PING") {
        FPM_CHECK(tokens.size() == 1, "PING takes no arguments");
        request.kind = Request::Kind::kPing;
    } else if (verb == "QUIT") {
        FPM_CHECK(tokens.size() == 1, "QUIT takes no arguments");
        request.kind = Request::Kind::kQuit;
    } else if (verb == "STATS") {
        FPM_CHECK(tokens.size() == 1, "STATS takes no arguments");
        request.kind = Request::Kind::kStats;
    } else if (verb == "HEALTH") {
        FPM_CHECK(tokens.size() == 1, "HEALTH takes no arguments");
        request.kind = Request::Kind::kHealth;
    } else if (verb == "MODELS") {
        FPM_CHECK(tokens.size() == 1, "MODELS takes no arguments");
        request.kind = Request::Kind::kModels;
    } else if (verb == "LOAD") {
        FPM_CHECK(tokens.size() == 3, "usage: LOAD <name> <path>");
        request.kind = Request::Kind::kLoad;
        request.name = tokens[1];
        request.path = tokens[2];
    } else if (verb == "PARTITION") {
        FPM_CHECK(tokens.size() == 4 || tokens.size() == 5,
                  "usage: PARTITION <model> <n> <fpm|cpm|even> [nolayout]");
        request.kind = Request::Kind::kPartition;
        request.partition.model_set = tokens[1];
        request.partition.n = parse_int(tokens[2], "workload size");
        FPM_CHECK(request.partition.n > 0, "workload size must be positive");
        FPM_CHECK(request.partition.n <= part::kMaxN,
                  "workload size exceeds 2^26: " + tokens[2]);
        const auto algorithm = part::parse_algorithm(tokens[3]);
        FPM_CHECK(algorithm.has_value(), "unknown algorithm: " + tokens[3]);
        request.partition.algorithm = *algorithm;
        if (tokens.size() == 5) {
            FPM_CHECK(tokens[4] == "nolayout",
                      "unknown PARTITION option: " + tokens[4]);
            request.partition.with_layout = false;
        }
    } else if (verb == "FEEDBACK") {
        FPM_CHECK(tokens.size() == 5,
                  "usage: FEEDBACK <model> <device> <size> <seconds>");
        request.kind = Request::Kind::kFeedback;
        request.feedback.model_set = tokens[1];
        request.feedback.device = parse_int(tokens[2], "device index");
        FPM_CHECK(request.feedback.device >= 0,
                  "device index must be non-negative");
        request.feedback.problem_size =
            parse_double(tokens[3], "problem size");
        FPM_CHECK(std::isfinite(request.feedback.problem_size) &&
                      request.feedback.problem_size > 0.0,
                  "problem size must be positive and finite");
        request.feedback.seconds = parse_double(tokens[4], "measured time");
        FPM_CHECK(std::isfinite(request.feedback.seconds) &&
                      request.feedback.seconds > 0.0,
                  "measured time must be positive and finite");
    } else {
        // Typed so the wire answer is `ERR unsupported_verb ...` — the
        // code a newer client probes for when feature-detecting verbs.
        throw ServiceError(ErrorCode::kUnsupportedVerb,
                           "unknown command: " + verb);
    }
    return request;
}

Response decode_response(const std::string& line) {
    Response response;
    if (line.rfind("ERR", 0) == 0) {
        response.kind = Response::Kind::kError;
        const std::string body =
            line.size() > 4 ? line.substr(4) : std::string{};
        // The first token is an ErrorCode token.  One this build does not
        // know (a newer server added it) decodes as kInternal with the
        // whole body kept as the message.
        const auto space = body.find(' ');
        const std::string head = body.substr(0, space);
        if (const auto code = parse_error_token(head)) {
            response.error_code = *code;
            response.error = space == std::string::npos
                                 ? head  // token alone; never empty
                                 : body.substr(space + 1);
        } else {
            response.error = body;
        }
        return response;
    }
    const auto tokens = tokenize(line);
    FPM_CHECK(tokens.size() >= 2 && tokens[0] == "OK",
              "malformed response: " + line);
    const std::string& tag = tokens[1];

    if (tag == "PONG") {
        FPM_CHECK(tokens.size() == 3 && tokens[2].size() > 1 &&
                      tokens[2][0] == 'v',
                  "malformed PONG reply: " + line);
        response.kind = Response::Kind::kPong;
        response.version = static_cast<int>(
            parse_int(tokens[2].substr(1), "protocol version"));
    } else if (tag == "BYE") {
        FPM_CHECK(tokens.size() == 2, "malformed BYE reply: " + line);
        response.kind = Response::Kind::kBye;
    } else if (tag == "LOADED") {
        FPM_CHECK(tokens.size() == 6, "malformed LOADED reply: " + line);
        response.kind = Response::Kind::kLoaded;
        response.loaded.name = expect_kv(tokens[2], "name");
        response.loaded.models = static_cast<std::uint64_t>(
            parse_int(expect_kv(tokens[3], "models"), "model count"));
        response.loaded.generation = static_cast<std::uint64_t>(
            parse_int(expect_kv(tokens[4], "gen"), "generation"));
        response.loaded.fingerprint =
            parse_hex64(expect_kv(tokens[5], "fingerprint"), "fingerprint");
    } else if (tag == "MODELS") {
        FPM_CHECK(tokens.size() == 4, "malformed MODELS reply: " + line);
        response.kind = Response::Kind::kModels;
        const std::uint64_t count = static_cast<std::uint64_t>(
            parse_int(expect_kv(tokens[2], "count"), "set count"));
        const std::string sets_text = expect_kv(tokens[3], "sets");
        if (sets_text != "-") {
            for (const auto& entry : split(sets_text, ',')) {
                const auto fields = split(entry, ':');
                FPM_CHECK(fields.size() == 3,
                          "malformed model-set entry: " + entry);
                ModelSetInfo info;
                info.name = fields[0];
                info.generation = static_cast<std::uint64_t>(
                    parse_int(fields[1], "generation"));
                info.models = static_cast<std::uint64_t>(
                    parse_int(fields[2], "model count"));
                response.sets.push_back(std::move(info));
            }
        }
        FPM_CHECK(response.sets.size() == count,
                  "MODELS count disagrees with its set list: " + line);
    } else if (tag == "STATS" || tag == "HEALTH") {
        response.kind =
            tag == "STATS" ? Response::Kind::kStats : Response::Kind::kHealth;
        for (std::size_t i = 2; i < tokens.size(); ++i) {
            const auto eq = tokens[i].find('=');
            FPM_CHECK(eq != std::string::npos && eq > 0,
                      "malformed " + tag + " field: " + tokens[i]);
            response.fields.push_back(
                {tokens[i].substr(0, eq), tokens[i].substr(eq + 1)});
        }
    } else if (tag == "PARTITION") {
        FPM_CHECK(tokens.size() == 13, "malformed partition reply: " + line);
        response.kind = Response::Kind::kPartition;
        PartitionReply& parsed = response.partition;
        parsed.model = expect_kv(tokens[2], "model");
        parsed.generation = static_cast<std::uint64_t>(
            parse_int(expect_kv(tokens[3], "gen"), "generation"));
        parsed.n = parse_int(expect_kv(tokens[4], "n"), "n");
        const auto algorithm =
            part::parse_algorithm(expect_kv(tokens[5], "algo"));
        FPM_CHECK(algorithm.has_value(),
                  "malformed algorithm in reply: " + line);
        parsed.algorithm = *algorithm;
        parsed.cached =
            parse_int(expect_kv(tokens[6], "cached"), "cached") != 0;
        parsed.degraded =
            parse_int(expect_kv(tokens[7], "degraded"), "degraded") != 0;
        parsed.balanced_time =
            parse_double(expect_kv(tokens[8], "balanced"), "balanced time");
        parsed.makespan =
            parse_double(expect_kv(tokens[9], "makespan"), "makespan");
        parsed.comm_cost = parse_int(expect_kv(tokens[10], "comm"), "comm cost");
        for (const auto& cell : split(expect_kv(tokens[11], "blocks"), ',')) {
            parsed.blocks.push_back(parse_int(cell, "block count"));
        }
        const std::string layout_text = expect_kv(tokens[12], "layout");
        if (layout_text != "-") {
            for (const auto& rect_text : split(layout_text, '|')) {
                const auto fields = split(rect_text, ':');
                FPM_CHECK(fields.size() == 4, "malformed rect: " + rect_text);
                part::Rect rect;
                rect.col0 = parse_int(fields[0], "rect col0");
                rect.row0 = parse_int(fields[1], "rect row0");
                rect.w = parse_int(fields[2], "rect w");
                rect.h = parse_int(fields[3], "rect h");
                parsed.rects.push_back(rect);
            }
        }
    } else if (tag == "FEEDBACK") {
        FPM_CHECK(tokens.size() == 9, "malformed FEEDBACK reply: " + line);
        response.kind = Response::Kind::kFeedback;
        FeedbackReply& parsed = response.feedback;
        parsed.model_set = expect_kv(tokens[2], "set");
        parsed.device = parse_int(expect_kv(tokens[3], "device"), "device");
        parsed.samples = static_cast<std::uint64_t>(
            parse_int(expect_kv(tokens[4], "samples"), "sample count"));
        parsed.reliable =
            parse_int(expect_kv(tokens[5], "reliable"), "reliable") != 0;
        parsed.drift = parse_int(expect_kv(tokens[6], "drift"), "drift") != 0;
        parsed.republished =
            parse_int(expect_kv(tokens[7], "republished"), "republished") != 0;
        parsed.version = static_cast<std::uint64_t>(
            parse_int(expect_kv(tokens[8], "version"), "version"));
    } else {
        throw Error("unknown response tag: " + tag);
    }
    return response;
}

} // namespace reference

/// What one decode made of a line: the decoded message's encoding, or
/// the failure's type, code and message (never its source location).
template <class Decode>
std::string decode_outcome(Decode&& decode) {
    try {
        return "ok " + decode().encode();
    } catch (const ServiceError& e) {
        return "ServiceError " + std::string(error_token(e.code())) + ": " +
               std::string(e.message());
    } catch (const Error& e) {
        return "Error: " + std::string(e.message());
    }
}

/// Wire whitespace: every run a decoder must split on.
const std::vector<std::string> kWhitespace = {" ", "\t", "\n", "\v", "\f",
                                              "\r"};

/// Number spellings at the edges of strtoll's and strtod's grammars.
const std::vector<std::string> kNumberSpellings = {
    "0", "7", "+5", "007", "+007", "-0", "+0", "-5", "+-5", "-+5", "++5",
    "--5", "+", "-", "9223372036854775807", "9223372036854775808",
    "-9223372036854775808", "-9223372036854775809", "67108864", "67108865",
    "1e-400", "1e400", "1e-310", "4.9e-324", "0x1p-3", "0x10", "0X1P4",
    "-0x1.8p1", "inf", "-inf", "INF", "infinity", "nan", "NAN", "nan(0x1)",
    "-nan", "1.5", ".5", "5.", "1e3", "1E+3", "1.5e", "12abc", "1,2", "1,",
    ",1", "1,,2", "1:2:3:4", "1:2:3:4:", "1:2", "a:1:2", "a:1:2,", "-", "=",
    "v7", "v", "0x", "1.5.5", "fpm", "nolayout", ""};

/// Trailing garbage appended after a line's tokens.
const std::vector<std::string> kTrailing = {"x", "\x01", "=", "nolayout",
                                            "1", "fpm", "a=b", "-"};

template <class T>
const T& pick(const std::vector<T>& items, Rng& rng) {
    return items[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(items.size()) - 1))];
}

std::string whitespace_run(Rng& rng) {
    if (rng.uniform_int(0, 1) == 0) {
        return " ";
    }
    std::string run;
    for (auto i = rng.uniform_int(1, 3); i > 0; --i) {
        run += pick(kWhitespace, rng);
    }
    return run;
}

/// A seeded mutation of `seed` (space-separated tokens): values replaced
/// by edge spellings (inside `key=value` tokens too), whitespace runs of
/// all six characters between, before and after the tokens, trailing
/// garbage, truncation, single-byte changes and empty lines.
std::string mutate_line(const std::string& seed, Rng& rng) {
    std::vector<std::string> tokens;
    std::istringstream split_seed(seed);
    for (std::string token; split_seed >> token;) {
        tokens.push_back(token);
    }
    for (auto i = rng.uniform_int(0, 2); i > 0 && !tokens.empty(); --i) {
        std::string& token = tokens[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(tokens.size()) - 1))];
        const auto eq = token.find('=');
        if (eq != std::string::npos && rng.uniform_int(0, 3) != 0) {
            token = token.substr(0, eq + 1) + pick(kNumberSpellings, rng);
        } else {
            token = pick(kNumberSpellings, rng);
        }
    }
    if (rng.uniform_int(0, 5) == 0) {
        tokens.push_back(pick(kTrailing, rng));
    }
    std::string line;
    if (rng.uniform_int(0, 5) == 0) {
        line += whitespace_run(rng);
    }
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (i > 0) {
            line += whitespace_run(rng);
        }
        line += tokens[i];
    }
    if (rng.uniform_int(0, 5) == 0) {
        line += whitespace_run(rng);
    }
    switch (rng.uniform_int(0, 9)) {
    case 0:
        line.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(line.size()))));
        break;
    case 1:
        if (!line.empty()) {
            line[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(line.size()) - 1))] =
                rng.uniform_int(0, 3) == 0
                    ? pick(kWhitespace, rng)[0]
                    : static_cast<char>(rng.uniform_int(33, 126));
        }
        break;
    case 2:
        line.clear();
        break;
    default:
        break;
    }
    return line;
}

std::string request_outcome(const std::string& line) {
    return decode_outcome([&] { return Request::decode(line); });
}

std::string reference_request_outcome(const std::string& line) {
    return decode_outcome([&] { return reference::decode_request(line); });
}

TEST(ProtocolCodec, RequestDecodeAgreesWithTheIostreamDecoder) {
    std::vector<std::string> lines = {"", " ", " \t\n\v\f\r", "\v", "\f"};
    // Every edge spelling in every numeric position, one at a time.
    for (const std::string& number : kNumberSpellings) {
        lines.push_back("PARTITION hybrid " + number + " fpm");
        lines.push_back("PARTITION hybrid 64 " + number);
        lines.push_back("FEEDBACK hybrid " + number + " 100 1.5");
        lines.push_back("FEEDBACK hybrid 0 " + number + " 1.5");
        lines.push_back("FEEDBACK hybrid 0 100 " + number);
    }
    const std::vector<std::string> seeds = {
        "PARTITION hybrid 512 fpm", "PARTITION hybrid 96 cpm nolayout",
        "PARTITION g 1 even", "FEEDBACK hybrid 2 1536.5 0.125",
        "FEEDBACK hybrid 0 0x1p10 1e-3", "LOAD hybrid /tmp/models.csv",
        "PING", "STATS", "MODELS"};
    Rng rng(0xc0dec0deULL);
    for (const std::string& seed : seeds) {
        for (int i = 0; i < 3000; ++i) {
            lines.push_back(mutate_line(seed, rng));
        }
    }
    std::size_t accepted = 0;
    for (const std::string& line : lines) {
        const std::string expected = reference_request_outcome(line);
        EXPECT_EQ(request_outcome(line), expected) << "line: " << line;
        accepted += expected.starts_with("ok ") ? 1 : 0;
    }
    // Both outcomes occur often: the mutations are neither all fatal nor
    // all harmless.
    EXPECT_GT(accepted, lines.size() / 10);
    EXPECT_LT(accepted, lines.size() * 9 / 10);
}

/// Whether `line` is a reply holding a spelling the reference read through
/// an unchecked cast and the decoder now refuses: a negative count,
/// generation or version, a PONG version that is not a positive int, or a
/// fingerprint that is not one to sixteen bare hex digits.
bool holds_refused_spelling(const std::string& line) {
    const auto negative = [](const std::string& text) {
        try {
            return reference::parse_int(text, "value") < 0;
        } catch (const Error&) {
            return false;
        }
    };
    const auto tokens = reference::tokenize(line);
    if (tokens.size() < 3 || tokens[0] != "OK") {
        return false;
    }
    const std::string& tag = tokens[1];
    if (tag == "PONG") {
        try {
            const auto version =
                reference::parse_int(tokens[2].substr(1), "version");
            return tokens[2][0] == 'v' &&
                   (version <= 0 || version > std::numeric_limits<int>::max());
        } catch (const Error&) {
            return false;
        }
    }
    if (tag != "LOADED" && tag != "MODELS" && tag != "PARTITION" &&
        tag != "FEEDBACK") {
        return false;
    }
    for (const std::string& token : tokens) {
        const auto eq = token.find('=');
        const std::string key = token.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : token.substr(eq + 1);
        if (key == "fingerprint") {
            if (value.empty() || value.size() > 16 ||
                value.find_first_not_of("0123456789abcdefABCDEF") !=
                    std::string::npos) {
                return true;
            }
        } else if (key == "sets") {
            for (const std::string& entry : reference::split(value, ',')) {
                const auto fields = reference::split(entry, ':');
                for (std::size_t i = 1; i < std::min<std::size_t>(3, fields.size());
                     ++i) {
                    if (negative(fields[i])) {
                        return true;
                    }
                }
            }
        } else if ((key == "models" || key == "gen" || key == "count" ||
                    key == "samples" || key == "version") &&
                   negative(value)) {
            return true;
        }
    }
    return false;
}

TEST(ProtocolCodec, ResponseDecodeAgreesWithTheIostreamDecoder) {
    Response partition;
    partition.kind = Response::Kind::kPartition;
    partition.partition = sample_partition_reply(true, true);
    Response nolayout = partition;
    nolayout.partition = sample_partition_reply(false, false);
    Response loaded;
    loaded.kind = Response::Kind::kLoaded;
    loaded.loaded = {"hybrid", 6, 12, 0x00ab0000cdef1234ULL};
    Response models;
    models.kind = Response::Kind::kModels;
    models.sets = {ModelSetInfo{"cpu", 1, 2}, ModelSetInfo{"gpu", 3, 4}};
    Response health;
    health.kind = Response::Kind::kHealth;
    health.fields = ServerHealth{}.to_fields();
    Response feedback;
    feedback.kind = Response::Kind::kFeedback;
    feedback.feedback = {"hybrid", 1, 12, true, false, true, 9};
    const std::vector<std::string> seeds = {
        partition.encode(), nolayout.encode(), loaded.encode(),
        models.encode(), health.encode(), feedback.encode(),
        "OK MODELS count=0 sets=-", "OK STATS requests=5 q2r_p50_us=1.5",
        "OK PONG v7", "OK BYE", "ERR busy", "ERR bad_request no such set",
        "ERR novel_code some text"};
    std::vector<std::string> lines = {"", "ERR", "ERR ", "OK", " OK BYE",
                                      "OK\vBYE", "OK\fPONG\fv7"};
    Rng rng(0x5eed5eedULL);
    for (const std::string& seed : seeds) {
        lines.push_back(seed);
        for (int i = 0; i < 2000; ++i) {
            lines.push_back(mutate_line(seed, rng));
        }
    }
    std::size_t accepted = 0;
    std::size_t refused = 0;
    for (const std::string& line : lines) {
        const std::string outcome =
            decode_outcome([&] { return Response::decode(line); });
        if (holds_refused_spelling(line)) {
            // RepliesRefuseOutOfRangeIntegers lists these spellings.
            EXPECT_TRUE(outcome.starts_with("Error: ")) << "line: " << line;
            ++refused;
            continue;
        }
        const std::string expected = decode_outcome(
            [&] { return reference::decode_response(line); });
        EXPECT_EQ(outcome, expected) << "line: " << line;
        accepted += expected.starts_with("ok ") ? 1 : 0;
    }
    EXPECT_GT(refused, 0u);
    EXPECT_GT(accepted, lines.size() / 10);
    EXPECT_LT(accepted, lines.size() * 9 / 10);
}

TEST(ProtocolCodec, StatValuesParseLikeStrtoll) {
    // A STATS value reaches the integer parser whole, so strtoll's
    // leading whitespace is part of the grammar to keep.
    std::vector<std::string> values;
    for (const std::string& number : kNumberSpellings) {
        values.push_back(number);
        for (const std::string& space : kWhitespace) {
            values.push_back(space + number);
            values.push_back(number + space);
        }
    }
    const auto reply = [](const ServerStats& stats) {
        Response response;
        response.kind = Response::Kind::kStats;
        response.fields = stats.to_fields();
        return response;
    };
    for (const std::string& value : values) {
        const std::string outcome = decode_outcome([&] {
            return reply(ServerStats::from_fields({{"requests", value}}));
        });
        // A count below zero is refused (RepliesRefuseOutOfRangeIntegers).
        try {
            if (reference::parse_int(value, "requests") < 0) {
                EXPECT_EQ(outcome, "Error: malformed requests: " + value);
                continue;
            }
        } catch (const Error&) {
        }
        const std::string expected = decode_outcome([&] {
            ServerStats stats;
            stats.requests = static_cast<std::uint64_t>(
                reference::parse_int(value, "requests"));
            return reply(stats);
        });
        EXPECT_EQ(outcome, expected) << "value: " << value;
    }
}

TEST(ProtocolCodec, TokensEndAtTheirLengthNotAtAnEmbeddedNul) {
    // The one deliberate difference from the reference: it read numbers
    // through c_str(), so a token with a NUL byte parsed up to the NUL.
    const std::string line("PARTITION hybrid 12\0x fpm", 25);
    EXPECT_TRUE(reference_request_outcome(line).starts_with("ok "));
    EXPECT_EQ(request_outcome(line),
              "Error: malformed workload size: " + std::string("12\0x", 4));
}

TEST(ProtocolCodec, RepliesRefuseOutOfRangeIntegers) {
    // The other deliberate difference from the reference, which narrowed
    // integers with static_cast and read fingerprints with strtoull: each
    // of these lines decoded there (a version of 2^32 + 7 as 7, -1 as
    // 2^64 - 1) and is malformed now.
    const std::string partition =
        "OK PARTITION model=g gen=-1 n=4 algo=fpm cached=0 degraded=0 "
        "balanced=1 makespan=1 comm=8 blocks=16 layout=0:0:4:4";
    const std::string feedback =
        "OK FEEDBACK set=g device=0 samples=3 reliable=1 drift=0 "
        "republished=0 version=";
    const std::vector<std::pair<std::string, std::string>> lines = {
        {"OK PONG v4294967303", "protocol version: 4294967303"},
        {"OK PONG v2147483648", "protocol version: 2147483648"},
        {"OK PONG v0", "protocol version: 0"},
        {"OK PONG v-7", "protocol version: -7"},
        {"OK LOADED name=g models=-3 gen=-1 fingerprint=-1", "model count: -3"},
        {"OK LOADED name=g models=3 gen=-1 fingerprint=1f", "generation: -1"},
        {"OK LOADED name=g models=3 gen=1 fingerprint=-1", "fingerprint: -1"},
        {"OK LOADED name=g models=3 gen=1 fingerprint=+1f", "fingerprint: +1f"},
        {"OK LOADED name=g models=3 gen=1 fingerprint=0x1f", "fingerprint: 0x1f"},
        {"OK LOADED name=g models=3 gen=1 fingerprint=00000000000000001f",
         "fingerprint: 00000000000000001f"},
        {"OK MODELS count=1 sets=a:-2:3", "generation: -2"},
        {"OK MODELS count=1 sets=a:2:-3", "model count: -3"},
        {partition, "generation: -1"},
        {feedback + "-1", "version: -1"},
        {"OK FEEDBACK set=g device=0 samples=-3 reliable=1 drift=0 "
         "republished=0 version=1",
         "sample count: -3"},
    };
    for (const auto& [line, message] : lines) {
        EXPECT_TRUE(decode_outcome([&] {
                        return reference::decode_response(line);
                    }).starts_with("ok "))
            << line;
        EXPECT_EQ(decode_outcome([&] { return Response::decode(line); }),
                  "Error: malformed " + message);
        EXPECT_TRUE(holds_refused_spelling(line)) << line;
    }
    // The spellings either side of each rule still decode.
    for (const std::string& line :
         {std::string("OK PONG v2147483647"),
          std::string("OK LOADED name=g models=0 gen=-0 "
                      "fingerprint=FFFFFFFFFFFFFFFF"),
          feedback + "0"}) {
        EXPECT_TRUE(response_decodes(line)) << line;
        EXPECT_FALSE(holds_refused_spelling(line)) << line;
    }
    // STATS and HEALTH values reach the same check through from_fields.
    for (const auto& [line, message] :
         {std::pair<std::string, std::string>{"OK STATS requests=-1",
                                              "malformed requests: -1"},
          {"OK HEALTH models=-2", "malformed models: -2"}}) {
        const Response response = Response::decode(line);
        try {
            if (response.kind == Response::Kind::kStats) {
                (void)ServerStats::from_fields(response.fields);
            } else {
                (void)ServerHealth::from_fields(response.fields);
            }
            ADD_FAILURE() << line << " decoded";
        } catch (const Error& e) {
            EXPECT_EQ(std::string(e.message()), message);
        }
    }
}

} // namespace
