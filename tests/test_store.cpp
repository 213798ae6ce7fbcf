// fpm::store crash-recovery suite: WAL framing (CRC, torn-tail
// truncation, self-healing appends), ModelStore write-ahead veto
// semantics through the registry put observer, snapshots that truncate
// the log, a corrupt snapshot or a numbered older-layout directory
// failing recovery loudly, attach() refusing an unrecovered store, the
// store.append/store.fsync/store.snapshot fault points, a real
// fork()+SIGKILL crash test whose recovered registry must serve
// bit-for-bit identical plans at the pre-crash generation, and a chaos
// run with every store fault armed against the live serve stack — zero
// torn replies, and post-chaos recovery must reproduce the served state
// exactly.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fpm/core/model_io.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/obs/metrics.hpp"
#include "fpm/serve/client.hpp"
#include "fpm/serve/error.hpp"
#include "fpm/serve/model_registry.hpp"
#include "fpm/serve/protocol.hpp"
#include "fpm/serve/request_engine.hpp"
#include "fpm/serve/server.hpp"
#include "fpm/store/model_store.hpp"
#include "fpm/store/wal.hpp"
#include "model_io_reference.hpp"
#include "stress_harness.hpp"

namespace fpm::store {
namespace {

namespace fs = std::filesystem;
using core::SpeedFunction;
using core::SpeedPoint;
using serve::ErrorCode;
using serve::ModelRegistry;
using serve::ServiceError;

/// Deterministic synthetic device set (same family as test_serve.cpp);
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
        char tmpl[] = "/tmp/fpmpart_store_XXXXXX";
        const char* made = ::mkdtemp(tmpl);
        EXPECT_NE(made, nullptr);
        path = made != nullptr ? made : "/tmp/fpmpart_store_fallback";
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

std::uint64_t file_size(const std::string& path) {
    return static_cast<std::uint64_t>(fs::file_size(path));
}

void append_raw(const std::string& path, std::string_view bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
}

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/// Store-directory census, by file name.
struct DirCensus {
    std::size_t logs = 0;       ///< wal.log
    std::size_t snapshots = 0;  ///< snapshot.fpms
    std::size_t tmps = 0;       ///< snapshot.fpms.tmp
    std::size_t others = 0;     ///< anything else
};

DirCensus census(const std::string& dir) {
    DirCensus c;
    for (const auto& entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name == "wal.log") {
            ++c.logs;
        } else if (name == "snapshot.fpms") {
            ++c.snapshots;
        } else if (name == "snapshot.fpms.tmp") {
            ++c.tmps;
        } else {
            ++c.others;
        }
    }
    return c;
}

// ---------------------------------------------------------------------------
// WAL framing
// ---------------------------------------------------------------------------

TEST(Wal, Crc32MatchesTheIeeeReferenceVector) {
    // The canonical CRC-32 check value ("123456789" -> 0xCBF43926).
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Wal, Crc32EqualsTheBytewiseReferenceAtEveryLengthAndAlignment) {
    // Slice-by-8 folds eight bytes per step and finishes bytewise: every
    // length 0..64 from every start offset 0..7 covers each split of a
    // buffer into aligned words and a tail.
    std::string bytes(72, '\0');
    std::uint64_t state = 0x2545F4914F6CDD1DULL;
    for (char& byte : bytes) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        byte = static_cast<char>(state >> 56);
    }
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t length = 0; length <= 64; ++length) {
            EXPECT_EQ(crc32(bytes.data() + offset, length),
                      core::reference::crc32_bytewise(bytes.data() + offset,
                                                      length))
                << "offset " << offset << ", length " << length;
        }
    }
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

TEST(Wal, FramesAreLengthCrcPayload) {
    const std::string frame = encode_frame("abc");
    ASSERT_EQ(frame.size(), 8u + 3u);
    const auto u32 = [&](std::size_t at) {
        return static_cast<std::uint32_t>(
                   static_cast<unsigned char>(frame[at])) |
               static_cast<std::uint32_t>(
                   static_cast<unsigned char>(frame[at + 1])) << 8 |
               static_cast<std::uint32_t>(
                   static_cast<unsigned char>(frame[at + 2])) << 16 |
               static_cast<std::uint32_t>(
                   static_cast<unsigned char>(frame[at + 3])) << 24;
    };
    EXPECT_EQ(u32(0), 3u);                 // little-endian payload length
    EXPECT_EQ(u32(4), crc32("abc", 3));    // little-endian payload CRC
    EXPECT_EQ(frame.substr(8), "abc");
}

TEST(Wal, AppendReplayRoundTrip) {
    TempDir dir;
    const std::string path = dir.path + "/wal.log";
    const std::vector<std::string> payloads = {"first", "", "third record",
                                               std::string(4096, 'x')};
    WalFile wal;
    wal.open(path, 0);
    std::uint64_t expected = 0;
    for (const std::string& payload : payloads) {
        expected += wal.append(payload);
        EXPECT_EQ(wal.committed_bytes(), expected);
    }
    wal.close();

    const auto replay = replay_wal(path, false);
    EXPECT_EQ(replay.truncated_bytes, 0u);
    EXPECT_EQ(replay.payloads, payloads);
}

TEST(Wal, TornTailIsReportedAndRepairTruncatesIt) {
    TempDir dir;
    const std::string path = dir.path + "/wal.log";
    WalFile wal;
    wal.open(path, 0);
    wal.append("alpha");
    wal.append("beta");
    const std::uint64_t committed = wal.committed_bytes();
    wal.close();

    // A crash mid-append: a frame header promising more bytes than exist.
    append_raw(path, std::string("\x40\x00\x00\x00\x99\x99", 6));
    ASSERT_GT(file_size(path), committed);

    const auto peek = replay_wal(path, false);
    EXPECT_EQ(peek.payloads, (std::vector<std::string>{"alpha", "beta"}));
    EXPECT_EQ(peek.truncated_bytes, 6u);
    EXPECT_GT(file_size(path), committed);  // repair=false never writes

    const auto repaired = replay_wal(path, true);
    EXPECT_EQ(repaired.payloads.size(), 2u);
    EXPECT_EQ(repaired.truncated_bytes, 6u);
    EXPECT_EQ(file_size(path), committed);

    const auto clean = replay_wal(path, false);
    EXPECT_EQ(clean.truncated_bytes, 0u);
    EXPECT_EQ(clean.payloads.size(), 2u);
}

TEST(Wal, CrcCorruptionEndsTheReplayAtTheLastGoodRecord) {
    TempDir dir;
    const std::string path = dir.path + "/wal.log";
    WalFile wal;
    wal.open(path, 0);
    wal.append("keep me");
    const std::uint64_t boundary = wal.committed_bytes();
    wal.append("corrupt me");
    wal.close();

    // Flip one payload byte of the second record (header stays intact,
    // so only the CRC check can catch it).
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(boundary) + 8);
    file.put('X');
    file.close();

    const auto replay = replay_wal(path, true);
    EXPECT_EQ(replay.payloads, (std::vector<std::string>{"keep me"}));
    EXPECT_GT(replay.truncated_bytes, 0u);
    EXPECT_EQ(file_size(path), boundary);
}

TEST(Wal, FailedAppendSelfHealsAtTheNextAppend) {
    FaultGuard guard;
    TempDir dir;
    const std::string path = dir.path + "/wal.log";
    WalFile wal;
    wal.open(path, 0);
    wal.append("durable");
    const std::uint64_t committed = wal.committed_bytes();

    fault::install(fault::FaultPlan::parse("seed=1,store.append=1"));
    EXPECT_THROW(wal.append("lost"), ServiceError);
    EXPECT_EQ(wal.committed_bytes(), committed);
    EXPECT_GT(file_size(path), committed);  // deliberately torn half-frame

    fault::uninstall();
    wal.append("after the failure");
    wal.close();

    const auto replay = replay_wal(path, false);
    EXPECT_EQ(replay.truncated_bytes, 0u);
    EXPECT_EQ(replay.payloads,
              (std::vector<std::string>{"durable", "after the failure"}));
}

// ---------------------------------------------------------------------------
// FsyncPolicy parsing
// ---------------------------------------------------------------------------

TEST(StoreOptionsTest, FsyncPolicyParsesItsOwnToString) {
    EXPECT_EQ(parse_fsync_policy("always"), FsyncPolicy::kAlways);
    EXPECT_EQ(parse_fsync_policy("never"), FsyncPolicy::kNever);
    EXPECT_EQ(to_string(FsyncPolicy::kAlways), "always");
    EXPECT_EQ(to_string(FsyncPolicy::kNever), "never");
    EXPECT_THROW((void)parse_fsync_policy("sometimes"), fpm::Error);
    EXPECT_THROW((void)parse_fsync_policy(""), fpm::Error);
}

// ---------------------------------------------------------------------------
// ModelStore: attach / append / recover
// ---------------------------------------------------------------------------

TEST(ModelStoreTest, RecoversExactGenerationsAndFingerprintsAfterAbandon) {
    TempDir dir;
    std::vector<std::uint64_t> fingerprints;
    std::uint64_t next_generation = 0;
    {
        ModelRegistry registry;
        ModelStore store(dir.path);
        const auto fresh = store.recover(registry);
        EXPECT_EQ(fresh.recovered_generation, 0u);
        EXPECT_EQ(fresh.sets, 0u);
        store.attach(registry);

        registry.put("alpha", synthetic_models(2, 24, 1.0));
        registry.put("beta", synthetic_models(3, 24, 2.0));
        registry.put("alpha", synthetic_models(2, 24, 3.0));  // reload
        for (const auto& set : registry.snapshot()) {
            fingerprints.push_back(set->fingerprint);
        }
        next_generation = registry.next_generation();
        EXPECT_EQ(next_generation, 4u);
        store.abandon();  // simulated kill -9: no final snapshot
    }
    {
        ModelRegistry recovered;
        ModelStore store(dir.path);
        const auto report = store.recover(recovered);
        EXPECT_EQ(report.recovered_generation, 3u);
        EXPECT_EQ(report.wal_records, 3u);
        EXPECT_EQ(report.truncated_bytes, 0u);
        EXPECT_EQ(report.sets, 2u);
        EXPECT_EQ(store.last_recovery().recovered_generation, 3u);

        // Same names, same fingerprints, same per-set generations, and
        // the registry's counter resumes past the crash point.
        ASSERT_EQ(recovered.size(), 2u);
        std::vector<std::uint64_t> got;
        for (const auto& set : recovered.snapshot()) {
            got.push_back(set->fingerprint);
        }
        EXPECT_EQ(got, fingerprints);
        EXPECT_EQ(recovered.get("alpha")->generation, 3u);
        EXPECT_EQ(recovered.get("beta")->generation, 2u);
        EXPECT_EQ(recovered.next_generation(), next_generation);
        store.abandon();
    }
}

TEST(ModelStoreTest, RecoveryStopsAtASetNameTheRegistryRefuses) {
    // A store written before ':' joined the set-name rule may hold such
    // a set.  Recovery must fail loudly, from the WAL and from a
    // snapshot alike, rather than serve it or skip the snapshot.
    for (const bool snapshotted : {false, true}) {
        TempDir dir;
        {
            ModelRegistry registry;
            ModelStore store(dir.path);
            store.recover(registry);
            serve::ModelSet set;
            set.name = "a:b";
            set.models = synthetic_models(2, 16, 1.0);
            set.generation = 1;
            set.fingerprint = serve::fingerprint_models(set.models);
            store.append(set);
            if (snapshotted) {
                store.snapshot();
            }
            store.abandon();
        }
        ModelRegistry recovered;
        ModelStore store(dir.path);
        EXPECT_THROW(store.recover(recovered), serve::ServiceError)
            << "snapshotted=" << snapshotted;
        store.abandon();
    }
}

TEST(ModelStoreTest, AttachMirrorsPreloadedRegistryContent) {
    TempDir dir;
    {
        // Content loaded *before* attach (the --models path) must become
        // durable at attach time, not silently stay RAM-only — logged in
        // generation order, although "zeta" sorts after "preloaded".
        ModelRegistry registry;
        registry.put("zeta", synthetic_models(2, 16, 2.0));
        registry.put("preloaded", synthetic_models(2, 16, 1.0));
        ModelStore store(dir.path);
        store.recover(registry);
        store.attach(registry);
        EXPECT_EQ(store.stats().appended, 2u);
        store.abandon();
    }
    ModelRegistry recovered;
    ModelStore store(dir.path);
    const auto report = store.recover(recovered);
    EXPECT_EQ(report.sets, 2u);
    ASSERT_NE(recovered.find("zeta"), nullptr);
    EXPECT_EQ(recovered.find("zeta")->generation, 1u);
    ASSERT_NE(recovered.find("preloaded"), nullptr);
    EXPECT_EQ(recovered.find("preloaded")->generation, 2u);
    store.abandon();
}

TEST(ModelStoreTest, TornWalTailTruncatesCleanlyOnRecovery) {
    TempDir dir;
    {
        ModelRegistry registry;
        ModelStore store(dir.path);
        store.recover(registry);
        store.attach(registry);
        registry.put("alpha", synthetic_models(2, 16, 1.0));
        registry.put("alpha", synthetic_models(2, 16, 2.0));
        registry.put("alpha", synthetic_models(2, 16, 3.0));
        EXPECT_EQ(store.stats().snapshots, 0u);  // the log holds all three
        store.abandon();
    }
    // A crash mid-append leaves a torn frame after generation 3.
    append_raw(dir.path + "/wal.log", std::string("\xff\xff\x00\x00half", 8));

    ModelRegistry recovered;
    ModelStore store(dir.path);
    const auto report = store.recover(recovered);
    EXPECT_EQ(report.recovered_generation, 3u);
    EXPECT_EQ(report.truncated_bytes, 8u);
    EXPECT_EQ(recovered.get("alpha")->generation, 3u);

    // The tail was physically repaired: appends extend a clean prefix.
    store.attach(recovered);
    recovered.put("alpha", synthetic_models(2, 16, 4.0));
    store.abandon();

    ModelRegistry again;
    ModelStore second(dir.path);
    const auto final_report = second.recover(again);
    EXPECT_EQ(final_report.truncated_bytes, 0u);
    EXPECT_EQ(final_report.recovered_generation, 4u);
    second.abandon();
}

TEST(ModelStoreTest, SnapshotCompactsAndTruncatesTheLog) {
    TempDir dir;
    std::vector<std::uint64_t> fingerprints;
    {
        ModelRegistry registry;
        StoreOptions options;
        options.snapshot_every = 2;
        ModelStore store(dir.path, options);
        store.recover(registry);
        store.attach(registry);
        // 5 appends with snapshot_every=2 -> snapshots at 2 and 4, each
        // leaving the log empty.
        for (int round = 1; round <= 5; ++round) {
            registry.put("alpha",
                         synthetic_models(2, 16, static_cast<double>(round)));
            EXPECT_EQ(store.stats().snapshots,
                      static_cast<std::uint64_t>(round / 2));
            EXPECT_EQ(file_size(dir.path + "/wal.log") == 0, round % 2 == 0)
                << "after append " << round;
        }
        const auto on_disk = census(dir.path);
        EXPECT_EQ(on_disk.logs, 1u);
        EXPECT_EQ(on_disk.snapshots, 1u);
        EXPECT_EQ(on_disk.tmps, 0u);
        EXPECT_EQ(on_disk.others, 0u);
        for (const auto& set : registry.snapshot()) {
            fingerprints.push_back(set->fingerprint);
        }
        store.abandon();
    }
    ModelRegistry recovered;
    ModelStore store(dir.path);
    const auto report = store.recover(recovered);
    EXPECT_EQ(report.snapshot_generation, 4u);
    EXPECT_EQ(report.wal_records, 1u);  // generation 5 replayed from the WAL
    EXPECT_EQ(report.recovered_generation, 5u);
    std::vector<std::uint64_t> got;
    for (const auto& set : recovered.snapshot()) {
        got.push_back(set->fingerprint);
    }
    EXPECT_EQ(got, fingerprints);
    store.abandon();
}

TEST(ModelStoreTest, WalAndSnapshotBytesMatchTheReferenceEncoder) {
    // The store's files hold exactly what the iostream encoder and a
    // bytewise CRC produced, so logs and snapshots written before and
    // after the codec change are interchangeable.  Awkward doubles (no
    // short decimal form, a finite capacity) exercise the number printing.
    TempDir dir;
    ModelRegistry registry;
    StoreOptions options;
    options.fsync_policy = FsyncPolicy::kNever;
    options.snapshot_every = 4;
    ModelStore store(dir.path, options);
    store.recover(registry);
    store.attach(registry);

    std::map<std::string, std::string> latest;  // name -> reference record
    std::string wal;
    for (int round = 1; round <= 6; ++round) {
        auto models = synthetic_models(3, 20, round / 3.0);
        models.emplace_back(std::vector<SpeedPoint>{{1.0 / 3.0, 1e17 / 7.0},
                                                    {97.0 / 7.0, 0.1 + 0.2}},
                            "odd", 1e6 * 3.14159265358979323846 / round);
        const std::string name = round % 2 == 1 ? "alpha" : "beta";
        const auto set = registry.put(name, std::move(models));
        const std::string record = core::reference::publish_record(*set);
        latest[name] = record;
        wal += core::reference::frame(record);
        if (round == 4) {
            // The snapshot every 4 appends covers both sets, then the
            // log starts over.
            std::string snapshot =
                core::reference::frame("fpmstore v1 next=5 sets=2");
            for (const auto& [set_name, set_record] : latest) {
                snapshot += core::reference::frame(set_record);
            }
            EXPECT_EQ(read_bytes(dir.path + "/snapshot.fpms"), snapshot);
            wal.clear();
        }
    }
    EXPECT_EQ(store.stats().snapshots, 1u);
    EXPECT_EQ(read_bytes(dir.path + "/wal.log"), wal);
    store.abandon();
}

TEST(PublishRecordTest, HeaderIsExactlyFourStrictTokens) {
    serve::ModelSet set;
    set.name = "g";
    set.models = synthetic_models(2, 8, 1.0);
    set.generation = 3;
    set.fingerprint = serve::fingerprint_models(set.models);
    const std::string good = encode_publish_record(set);
    const std::string body = good.substr(good.find('\n'));
    const std::string fp = good.substr(good.find('\n') - 16, 16);

    const PublishRecord record = decode_publish_record(good, "t");
    EXPECT_EQ(record.name, "g");
    EXPECT_EQ(record.generation, 3u);
    EXPECT_EQ(record.fingerprint, set.fingerprint);

    for (const std::string& header : std::vector<std::string>{
             "publish g -1 " + fp,           // used to wrap to 2^64 - 1
             "publish g +3 " + fp,           // a sign
             "publish g 3 " + fp + " trailing junk",
             "publish g 3 " + std::string(16, 'z'),  // not hex
             "publish g 3 0x" + fp.substr(2),
             "publish g 3 " + fp.substr(1),  // 15 digits
             "publish g 3 " + fp + "0",      // 17 digits
             "publish g 0 " + fp,
             "publish g 18446744073709551616 " + fp,  // 2^64
             "publish g 3x " + fp,
             "publish g " + fp,
             "publish  " + fp,
             "publish",
             "PUBLISH g 3 " + fp,
         }) {
        try {
            (void)decode_publish_record(header + body, "t");
            ADD_FAILURE() << "accepted '" << header << "'";
        } catch (const fpm::Error& e) {
            const std::string want =
                "t: malformed publish header '" + header + "'";
            EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
                << e.what();
        }
    }
    // The largest generation still parses, and blanks between tokens
    // are separators, as they were.
    EXPECT_EQ(decode_publish_record(
                  "publish g 18446744073709551615 " + fp + body, "t")
                  .generation,
              18446744073709551615u);
    EXPECT_EQ(decode_publish_record("publish\tg  3 " + fp + body, "t").name,
              "g");
}

TEST(ModelStoreTest, GracefulStopTakesAFinalSnapshotThatCoversEverything) {
    TempDir dir;
    {
        ModelRegistry registry;
        StoreOptions options;
        options.snapshot_every = 0;  // auto-snapshots off
        ModelStore store(dir.path, options);
        store.recover(registry);
        store.attach(registry);
        registry.put("alpha", synthetic_models(2, 16, 1.0));
        registry.put("beta", synthetic_models(2, 16, 2.0));
        store.stop();

        // After stop() the observer is detached: puts commit without the
        // store and must not crash or log.
        registry.put("gamma", synthetic_models(2, 16, 3.0));
        EXPECT_EQ(store.stats().appended, 2u);
    }
    ModelRegistry recovered;
    ModelStore store(dir.path);
    const auto report = store.recover(recovered);
    EXPECT_EQ(report.snapshot_generation, 2u);
    EXPECT_EQ(report.wal_records, 0u);
    EXPECT_EQ(report.sets, 2u);
    EXPECT_EQ(recovered.find("gamma"), nullptr);  // post-stop put, by design
    store.abandon();
}

// ---------------------------------------------------------------------------
// Fault points: write-ahead veto semantics
// ---------------------------------------------------------------------------

TEST(ModelStoreFaults, AppendFaultVetoesThePublishAndLeavesNoTrace) {
    FaultGuard guard;
    TempDir dir;
    ModelRegistry registry;
    ModelStore store(dir.path);
    store.recover(registry);
    store.attach(registry);
    registry.put("alpha", synthetic_models(2, 16, 1.0));
    const std::uint64_t fingerprint = registry.get("alpha")->fingerprint;
    const std::uint64_t next = registry.next_generation();

    fault::install(fault::FaultPlan::parse("seed=3,store.append=1"));
    try {
        registry.put("alpha", synthetic_models(2, 16, 9.0));
        FAIL() << "expected the store veto to propagate";
    } catch (const ServiceError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kStoreUnavailable);
    }
    // Vetoed: previous snapshot and generation counter fully intact.
    EXPECT_EQ(registry.get("alpha")->fingerprint, fingerprint);
    EXPECT_EQ(registry.next_generation(), next);

    fault::uninstall();
    const auto set = registry.put("alpha", synthetic_models(2, 16, 2.0));
    EXPECT_EQ(set->generation, next);
    store.abandon();

    // The torn half-frame the injected failure left was overwritten by
    // the successful append; recovery sees generations 1 and 2 only.
    ModelRegistry recovered;
    ModelStore second(dir.path);
    const auto report = second.recover(recovered);
    EXPECT_EQ(report.recovered_generation, next);
    EXPECT_EQ(report.wal_records, 2u);
    EXPECT_EQ(recovered.get("alpha")->fingerprint, set->fingerprint);
    second.abandon();
}

TEST(ModelStoreFaults, FsyncFaultRollsTheRecordBackBeforeVetoing) {
    FaultGuard guard;
    TempDir dir;
    ModelRegistry registry;
    ModelStore store(dir.path);
    store.recover(registry);
    store.attach(registry);
    registry.put("alpha", synthetic_models(2, 16, 1.0));
    const std::string log = dir.path + "/wal.log";
    const std::uint64_t committed = file_size(log);

    fault::install(fault::FaultPlan::parse("seed=4,store.fsync=1"));
    try {
        registry.put("alpha", synthetic_models(2, 16, 9.0));
        FAIL() << "expected the fsync veto to propagate";
    } catch (const ServiceError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kStoreUnavailable);
    }
    // The un-synced record was truncated away, not left as a valid frame
    // that recovery would replay despite the failed acknowledgement.
    EXPECT_EQ(file_size(log), committed);
    EXPECT_EQ(store.stats().appended, 1u);
    fault::uninstall();
    store.abandon();
}

TEST(ModelStoreFaults, SnapshotFaultAbandonsTheTempFileAndKeepsAppending) {
    FaultGuard guard;
    TempDir dir;
    ModelRegistry registry;
    StoreOptions options;
    options.snapshot_every = 0;
    ModelStore store(dir.path, options);
    store.recover(registry);
    store.attach(registry);
    registry.put("alpha", synthetic_models(2, 16, 1.0));

    fault::install(fault::FaultPlan::parse("seed=5,store.snapshot=1"));
    EXPECT_THROW(store.snapshot(), ServiceError);
    fault::uninstall();
    // The injected crash point is between the temp write and the
    // rename: no published snapshot, the temp file left for recovery.
    EXPECT_EQ(census(dir.path).snapshots, 0u);
    EXPECT_EQ(census(dir.path).tmps, 1u);

    // The store keeps appending to the log after the failure.
    registry.put("alpha", synthetic_models(2, 16, 2.0));
    store.snapshot();
    EXPECT_EQ(census(dir.path).snapshots, 1u);
    store.abandon();

    ModelRegistry recovered;
    ModelStore second(dir.path);
    const auto report = second.recover(recovered);
    EXPECT_EQ(report.snapshot_generation, 2u);
    EXPECT_EQ(report.recovered_generation, 2u);
    EXPECT_EQ(census(dir.path).tmps, 0u);  // recovery sweeps *.tmp
    second.abandon();
}

TEST(ModelStoreTest, CorruptSnapshotFailsRecovery) {
    TempDir dir;
    {
        ModelRegistry registry;
        StoreOptions options;
        options.snapshot_every = 0;
        ModelStore store(dir.path, options);
        store.recover(registry);
        store.attach(registry);
        registry.put("alpha", synthetic_models(2, 16, 1.0));
        registry.put("beta", synthetic_models(2, 16, 2.0));
        store.snapshot();  // the only copy of beta from here on
        registry.put("alpha", synthetic_models(2, 16, 3.0));
        store.abandon();
    }
    const std::string snapshot = dir.path + "/snapshot.fpms";
    ASSERT_TRUE(fs::exists(snapshot));
    append_raw(snapshot, "garbage tail");

    // The log was truncated by the snapshot, so recovering without it
    // would silently drop beta: recovery must fail and name the file.
    ModelRegistry recovered;
    ModelStore store(dir.path);
    try {
        (void)store.recover(recovered);
        FAIL() << "recovered past a corrupt snapshot; beta "
               << (recovered.find("beta") != nullptr ? "present" : "lost");
    } catch (const fpm::Error& e) {
        EXPECT_NE(std::string(e.what()).find(snapshot), std::string::npos)
            << e.what();
    }
    store.abandon();
}

TEST(ModelStoreTest, SnapshotHeaderIsExactlyFourStrictTokens) {
    // A snapshot whose header is not `fpmstore v1 next=<digits>
    // sets=<digits>` fails recovery, however intact its framing: a signed
    // or junk-suffixed count must not set the generation counter.
    serve::ModelSet set;
    set.name = "alpha";
    set.models = synthetic_models(2, 16, 1.0);
    set.generation = 1;
    set.fingerprint = serve::fingerprint_models(set.models);
    const std::string record = encode_frame(encode_publish_record(set));
    for (const std::string header : {
             "fpmstore v1 next=-1 sets=1", "fpmstore v1 next=+2 sets=1",
             "fpmstore v1 next=2x sets=1", "fpmstore v1 next= sets=1",
             "fpmstore v1 next=2 sets=1 extra",
             "fpmstore v1 next=18446744073709551616 sets=1",
             "fpmstore v1 next=2", "fpmstore v2 next=2 sets=1"}) {
        TempDir dir;
        append_raw(dir.path + "/snapshot.fpms", encode_frame(header) + record);
        ModelRegistry registry;
        ModelStore store(dir.path);
        try {
            (void)store.recover(registry);
            ADD_FAILURE() << "recovered under '" << header << "'";
        } catch (const fpm::Error& e) {
            EXPECT_NE(std::string(e.what()).find("malformed snapshot header"),
                      std::string::npos)
                << header << ": " << e.what();
        }
        store.abandon();
    }
    // The header the store writes recovers.
    TempDir dir;
    append_raw(dir.path + "/snapshot.fpms",
               encode_frame("fpmstore v1 next=2 sets=1") + record);
    ModelRegistry registry;
    ModelStore store(dir.path);
    EXPECT_EQ(store.recover(registry).recovered_generation, 1u);
    store.abandon();
}

TEST(ModelStoreTest, CrashBeforeTheLogTruncationReplaysNothingTwice) {
    // A crash between the snapshot's rename and the log's truncation
    // leaves the log holding records the snapshot already covers.
    TempDir dir;
    const std::string log = dir.path + "/wal.log";
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> before;
    {
        ModelRegistry registry;
        StoreOptions options;
        options.snapshot_every = 0;
        ModelStore store(dir.path, options);
        store.recover(registry);
        store.attach(registry);
        registry.put("alpha", synthetic_models(2, 16, 1.0));
        registry.put("beta", synthetic_models(3, 16, 2.0));
        registry.put("alpha", synthetic_models(2, 16, 3.0));
        const std::string covered = read_bytes(log);
        store.snapshot();
        EXPECT_EQ(file_size(log), 0u);
        store.abandon();
        append_raw(log, covered);
        for (const auto& set : registry.snapshot()) {
            before[set->name] = {set->generation, set->fingerprint};
        }
    }
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> after;
    {
        ModelRegistry recovered;
        ModelStore store(dir.path);
        const auto report = store.recover(recovered);
        EXPECT_EQ(report.snapshot_generation, 3u);
        EXPECT_EQ(report.wal_records, 0u);
        EXPECT_EQ(report.truncated_bytes, 0u);
        EXPECT_EQ(report.recovered_generation, 3u);
        for (const auto& set : recovered.snapshot()) {
            after[set->name] = {set->generation, set->fingerprint};
        }
        // Appends extend the untruncated log past the covered records.
        store.attach(recovered);
        recovered.put("beta", synthetic_models(3, 16, 4.0));
        store.abandon();
    }
    EXPECT_EQ(after, before);

    ModelRegistry again;
    ModelStore store(dir.path);
    const auto report = store.recover(again);
    EXPECT_EQ(report.wal_records, 1u);
    EXPECT_EQ(report.recovered_generation, 4u);
    EXPECT_EQ(again.get("beta")->generation, 4u);
    EXPECT_EQ(again.get("alpha")->fingerprint, before["alpha"].second);
    store.abandon();
}

TEST(ModelStoreTest, NumberedOlderLayoutIsRefusedByName) {
    // Valid files of the numbered layout an older build wrote: recovering
    // beside them would come up empty, so recovery refuses the directory,
    // naming the file and leaving it where it is.
    serve::ModelSet set;
    set.name = "alpha";
    set.models = synthetic_models(2, 16, 1.0);
    set.generation = 1;
    set.fingerprint = serve::fingerprint_models(set.models);
    const std::string record = encode_frame(encode_publish_record(set));
    const std::map<std::string, std::string> older = {
        {"wal-000001.log", record},
        {"snapshot-000000000001.fpms",
         encode_frame("fpmstore v1 next=2 sets=1") + record}};
    for (const auto& [name, bytes] : older) {
        TempDir dir;
        const std::string path = dir.path + "/" + name;
        append_raw(path, bytes);
        ModelRegistry registry;
        ModelStore store(dir.path);
        try {
            (void)store.recover(registry);
            FAIL() << "recovered beside " << name;
        } catch (const fpm::Error& e) {
            EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
                << e.what();
        }
        EXPECT_EQ(read_bytes(path), bytes);
        EXPECT_EQ(census(dir.path).logs, 0u);
        store.abandon();
    }
}

TEST(ModelStoreTest, AttachWithoutRecoverRefusesAnExistingStore) {
    // attach() without recover() opens the log at size 0, so over a
    // directory that already holds a store the first append would
    // overwrite it.  Store A logs alpha (and, in the second case,
    // compacts it into the snapshot); store B attaches without recovering
    // and must be refused, naming the file; store C still recovers alpha.
    for (const bool snapshotted : {false, true}) {
        TempDir dir;
        {
            ModelRegistry registry;
            ModelStore store(dir.path);
            store.recover(registry);
            store.attach(registry);
            registry.put("alpha", synthetic_models(2, 16, 1.0));
            if (snapshotted) {
                store.snapshot();
            }
            store.abandon();
        }
        const std::string named =
            dir.path + (snapshotted ? "/snapshot.fpms" : "/wal.log");
        {
            ModelRegistry registry;
            ModelStore store(dir.path);
            try {
                store.attach(registry);
                registry.put("beta", synthetic_models(2, 16, 2.0));
                ADD_FAILURE() << "attached without recover() beside "
                              << named;
            } catch (const fpm::Error& e) {
                EXPECT_NE(std::string(e.what()).find(named),
                          std::string::npos)
                    << e.what();
            }
            store.abandon();
        }
        ModelRegistry recovered;
        ModelStore store(dir.path);
        const auto report = store.recover(recovered);
        EXPECT_EQ(report.sets, 1u) << "snapshotted=" << snapshotted;
        EXPECT_EQ(report.recovered_generation, 1u);
        EXPECT_NE(recovered.find("alpha"), nullptr);
        EXPECT_EQ(recovered.find("beta"), nullptr);
        store.abandon();
    }

    // A fresh directory needs no recovery: attach() alone starts the log.
    TempDir fresh;
    {
        ModelRegistry registry;
        ModelStore store(fresh.path);
        store.attach(registry);
        registry.put("alpha", synthetic_models(2, 16, 1.0));
        store.abandon();
    }
    ModelRegistry recovered;
    ModelStore store(fresh.path);
    EXPECT_EQ(store.recover(recovered).sets, 1u);
    store.abandon();
}

// ---------------------------------------------------------------------------
// The crash test: fork, publish N generations, SIGKILL, recover, and
// serve bit-for-bit identical plans at the recovered generation.
// ---------------------------------------------------------------------------

TEST(ModelStoreCrash, Kill9AfterNRepublishesRecoversGenerationN) {
    constexpr int kGenerations = 6;
    TempDir dir;
    int ready_pipe[2];
    ASSERT_EQ(pipe(ready_pipe), 0);

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Child: publish kGenerations through the attached store (fsync
        // always, so every acknowledged publish is durable), report
        // readiness, then wait to be SIGKILLed mid-flight.
        ::close(ready_pipe[0]);
        int status = 1;
        try {
            ModelRegistry registry;
            ModelStore store(dir.path);
            store.recover(registry);
            store.attach(registry);
            for (int g = 1; g <= kGenerations; ++g) {
                registry.put("hybrid",
                             synthetic_models(3, 48, static_cast<double>(g)));
            }
            status = 0;
        } catch (...) {
        }
        const char byte = status == 0 ? '+' : '-';
        (void)!::write(ready_pipe[1], &byte, 1);
        ::pause();       // hold the store open until the SIGKILL lands
        ::_exit(status);  // not reached
    }

    ::close(ready_pipe[1]);
    char byte = 0;
    ASSERT_EQ(::read(ready_pipe[0], &byte, 1), 1);
    ::close(ready_pipe[0]);
    ASSERT_EQ(byte, '+') << "child failed to publish";
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int wait_status = 0;
    ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(wait_status));
    ASSERT_EQ(WTERMSIG(wait_status), SIGKILL);

    // Restart against the same --store dir.
    ModelRegistry recovered;
    ModelStore store(dir.path);
    const auto report = store.recover(recovered);
    EXPECT_EQ(report.recovered_generation,
              static_cast<std::uint64_t>(kGenerations));
    EXPECT_EQ(report.truncated_bytes, 0u);  // fsync'd appends, clean tail
    ASSERT_EQ(recovered.size(), 1u);

    // The recovered snapshot is the pre-crash one: same fingerprint,
    // same generation, and plans computed from it are bit-for-bit
    // identical to plans from the directly-built models.
    const auto last = synthetic_models(3, 48, kGenerations);
    const auto set = recovered.get("hybrid");
    EXPECT_EQ(set->generation, static_cast<std::uint64_t>(kGenerations));
    EXPECT_EQ(set->fingerprint, serve::fingerprint_models(last));
    serve::ModelSet direct;
    direct.name = "hybrid";
    direct.models = last;
    for (const std::int64_t n : {24, 96, 1024}) {
        const auto recovered_plan = serve::RequestEngine::compute_plan(
            *set, n, serve::Algorithm::kFpm, true);
        const auto direct_plan = serve::RequestEngine::compute_plan(
            direct, n, serve::Algorithm::kFpm, true);
        EXPECT_EQ(recovered_plan.blocks, direct_plan.blocks);
        EXPECT_EQ(recovered_plan.makespan, direct_plan.makespan);
    }

    // The STATS surface reports the recovered generation.
    serve::RequestEngine engine(recovered, {.workers = 1});
    const auto stats = serve::ServerStats::from_fields(
        serve::make_stats_reply(engine.stats(), recovered.size()).fields);
    EXPECT_EQ(stats.recovered_generation,
              static_cast<std::uint64_t>(kGenerations));
    store.abandon();
}

// ---------------------------------------------------------------------------
// Chaos: store.* faults armed against the live serve stack.  Every
// reply must decode cleanly (zero torn replies); store vetoes surface
// as typed store_unavailable errors; and after the dust settles a
// recovery from the same directory reproduces the served registry.
// ---------------------------------------------------------------------------

TEST(ModelStoreChaos, StoreFaultsNeverTearRepliesAndRecoveryMatches) {
    FaultGuard guard;
    TempDir dir;

    // A model CSV for the LOAD mutations the chaos clients fire.
    const std::string csv = dir.path + "/chaos_models.csv";
    core::save_speed_functions_csv(csv, synthetic_models(3, 32, 1.0));

    ModelRegistry registry;
    StoreOptions options;
    options.snapshot_every = 2;  // exercise the snapshot path mid-chaos
    ModelStore store(dir.path, options);
    store.recover(registry);
    store.attach(registry);
    registry.put("alpha", synthetic_models(3, 32, 1.0));

    serve::RequestEngine engine(registry,
                                {.workers = 2, .cache_capacity = 64});
    serve::SocketServer server(engine);
    server.start();

    fault::install(fault::FaultPlan::parse(
        "seed=99,store.append=0.3,store.fsync=0.2,store.snapshot=0.5"));

    constexpr std::size_t kClients = 4;
    constexpr std::size_t kRequests = 120;
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> store_errors{0};
    std::atomic<std::uint64_t> torn{0};

    fpm::test::run_concurrently(kClients, [&](std::size_t client_index) {
        serve::ServeConfig config;
        config.max_retries = 0;
        serve::ServeClient client("127.0.0.1", server.port(), config);
        for (std::size_t i = 0; i < kRequests; ++i) {
            const bool mutate = i % 3 == 0;
            const std::string line =
                mutate ? "LOAD set" + std::to_string(client_index) + " " + csv
                       : "PARTITION alpha 64 fpm";
            serve::Response response;
            try {
                response = serve::Response::decode(client.request(line));
            } catch (const fpm::Error&) {
                torn.fetch_add(1);  // transport failure or undecodable line
                return;
            }
            switch (response.kind) {
            case serve::Response::Kind::kError:
                if (response.error.empty()) {
                    torn.fetch_add(1);
                } else if (response.error_code ==
                           ErrorCode::kStoreUnavailable) {
                    store_errors.fetch_add(1);
                } else {
                    torn.fetch_add(1);  // only store vetoes are expected
                }
                break;
            case serve::Response::Kind::kLoaded:
            case serve::Response::Kind::kPartition:
                ok.fetch_add(1);
                break;
            default:
                torn.fetch_add(1);
                break;
            }
        }
    });

    fault::uninstall();
    server.stop();

    EXPECT_EQ(torn.load(), 0u);
    EXPECT_GT(ok.load(), 0u);
    EXPECT_GT(store_errors.load(), 0u)
        << "fault plan never fired; the chaos run proved nothing";

    // Durability invariant: whatever the clients were told committed is
    // exactly what a restart recovers — vetoed publishes left no trace.
    std::map<std::string, std::uint64_t> served;
    for (const auto& set : registry.snapshot()) {
        served[set->name] = set->fingerprint;
    }
    const std::uint64_t next = registry.next_generation();
    store.abandon();  // crash-style close: no final snapshot

    ModelRegistry recovered;
    ModelStore second(dir.path);
    second.recover(recovered);
    std::map<std::string, std::uint64_t> on_disk;
    for (const auto& set : recovered.snapshot()) {
        on_disk[set->name] = set->fingerprint;
    }
    EXPECT_EQ(on_disk, served);
    EXPECT_EQ(recovered.next_generation(), next);
    second.abandon();
}

} // namespace
} // namespace fpm::store
