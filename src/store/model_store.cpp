#include "fpm/store/model_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include "fpm/common/error.hpp"
#include "fpm/common/split.hpp"
#include "fpm/core/model_io.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/obs/metrics.hpp"
#include "fpm/serve/error.hpp"

namespace fpm::store {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

constexpr const char* kSnapshotMagic = "fpmstore";
constexpr const char* kSnapshotVersion = "v1";
constexpr const char* kWalName = "wal.log";
constexpr const char* kSnapshotName = "snapshot.fpms";

std::string fingerprint_hex(std::uint64_t fingerprint) {
    char buffer[20];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    return buffer;
}

/// A whole unsigned number in `base`: no sign, no blank, no overflow.
bool parse_u64(std::string_view text, std::uint64_t& value, int base = 10) {
    const char* end = text.data() + text.size();
    const auto result = std::from_chars(text.data(), end, value, base);
    return !text.empty() && result.ec == std::errc{} && result.ptr == end;
}

void write_file_durably(const std::string& path, const std::string& contents) {
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    FPM_CHECK(fd >= 0,
              "cannot create " + path + ": " + std::strerror(errno));
    std::size_t written = 0;
    while (written < contents.size()) {
        const ssize_t n =
            ::write(fd, contents.data() + written, contents.size() - written);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            const std::string reason = std::strerror(errno);
            ::close(fd);
            throw Error("write(" + path + "): " + reason);
        }
        written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        const std::string reason = std::strerror(errno);
        ::close(fd);
        throw Error("fsync(" + path + "): " + reason);
    }
    ::close(fd);
}

} // namespace

std::string encode_publish_record(const serve::ModelSet& set) {
    std::string out = "publish " + set.name + ' ' +
                      std::to_string(set.generation) + ' ' +
                      fingerprint_hex(set.fingerprint) + '\n';
    core::write_speed_functions(out, set.models);
    return out;
}

PublishRecord decode_publish_record(std::string_view payload,
                                    const std::string& origin) {
    FPM_CHECK(!payload.empty(), origin + ": empty publish record");
    const std::string_view header = payload.substr(0, payload.find('\n'));
    payload.remove_prefix(std::min(header.size() + 1, payload.size()));
    const auto fields = tokens_of<4>(header);
    PublishRecord record;
    FPM_CHECK(fields.size == 4 && fields[0] == "publish" &&
                  parse_u64(fields[2], record.generation) &&
                  record.generation > 0 && fields[3].size() == 16 &&
                  parse_u64(fields[3], record.fingerprint, 16),
              origin + ": malformed publish header '" + std::string(header) +
                  "'");
    record.name = fields[1];
    record.models = core::read_speed_functions(payload, origin);

    // The CRC already guards against bit rot; the fingerprint check
    // catches a writer/reader logic mismatch, which must never be
    // silently served.
    FPM_CHECK(serve::fingerprint_models(record.models) == record.fingerprint,
              origin + ": fingerprint mismatch for set '" + record.name + "'");
    return record;
}

FsyncPolicy parse_fsync_policy(std::string_view text) {
    if (text == "always") {
        return FsyncPolicy::kAlways;
    }
    if (text == "never") {
        return FsyncPolicy::kNever;
    }
    throw Error("unknown fsync policy '" + std::string(text) +
                "' (want always|never)");
}

std::string_view to_string(FsyncPolicy policy) noexcept {
    return policy == FsyncPolicy::kAlways ? "always" : "never";
}

ModelStore::ModelStore(std::string dir, StoreOptions options)
    : dir_(std::move(dir)), options_(options) {
    FPM_CHECK(!dir_.empty(), "store directory must not be empty");
    std::error_code ec;
    fs::create_directories(dir_, ec);
    FPM_CHECK(!ec, "cannot create store directory " + dir_ + ": " +
                       ec.message());
}

ModelStore::~ModelStore() {
    try {
        stop();
    } catch (...) {
        // Destructor shutdown is best-effort; WAL records are already
        // durable, only the final compaction is lost.
    }
}

RecoveryReport ModelStore::recover(serve::ModelRegistry& registry) {
    {
        std::lock_guard lock(mutex_);
        FPM_CHECK(!stopped_, "store is stopped");
        FPM_CHECK(!wal_.is_open(),
                  "recover() must run before the store is live");
    }
    // The replay below runs without the store mutex: recover() is
    // guaranteed to precede attach()/append() (checked above and
    // re-checked at commit), and registry.restore() takes the registry
    // mutex — which live put() observers hold while waiting on the store
    // mutex (registry -> store).  Holding the store mutex across
    // restore() would close that cycle into a deadlock.
    std::map<std::string, StoredRecord> mirror;
    std::uint64_t next_generation = 1;
    RecoveryReport report;

    // In-progress snapshot leftovers go away.  A numbered `wal-*.log` or
    // `snapshot-*.fpms` means an older build wrote this directory:
    // recovering beside it would come up empty, so it is refused instead.
    for (const auto& entry : fs::directory_iterator(dir_)) {
        const std::string name = entry.path().filename().string();
        if (name.size() > 4 && name.ends_with(".tmp")) {
            std::error_code ec;
            fs::remove(entry.path(), ec);
        }
        FPM_CHECK(!(name.starts_with("wal-") && name.ends_with(".log")) &&
                      !(name.starts_with("snapshot-") &&
                        name.ends_with(".fpms")),
                  entry.path().string() +
                      " belongs to the numbered store layout; convert the "
                      "directory first (docs/operations.md section 6)");
    }

    // The log was truncated when the snapshot was written, so no other
    // file holds its sets: it validates end to end or recovery fails.  A
    // snapshot is one framed file (a header frame, then one publish
    // record per set), so replay_wal() checks its framing.
    const std::string snapshot_path = dir_ + "/" + kSnapshotName;
    if (fs::exists(snapshot_path)) {
        ReplayResult replay = replay_wal(snapshot_path, /*repair=*/false);
        FPM_CHECK(replay.truncated_bytes == 0 && !replay.payloads.empty(),
                  snapshot_path + ": torn snapshot");
        const auto fields = tokens_of<4>(replay.payloads.front());
        std::uint64_t next = 0;
        std::uint64_t sets = 0;
        FPM_CHECK(fields.size == 4 && fields[0] == kSnapshotMagic &&
                      fields[1] == kSnapshotVersion &&
                      fields[2].starts_with("next=") &&
                      parse_u64(fields[2].substr(5), next) &&
                      fields[3].starts_with("sets=") &&
                      parse_u64(fields[3].substr(5), sets),
                  snapshot_path + ": malformed snapshot header");
        FPM_CHECK(replay.payloads.size() == sets + 1,
                  snapshot_path + ": holds " +
                      std::to_string(replay.payloads.size() - 1) +
                      " sets, header promises " + std::to_string(sets));
        for (std::size_t i = 1; i < replay.payloads.size(); ++i) {
            PublishRecord record =
                decode_publish_record(replay.payloads[i], snapshot_path);
            registry.restore(record.name, std::move(record.models),
                             record.generation);
            mirror[record.name] = {record.generation,
                                   std::move(replay.payloads[i])};
        }
        next_generation = std::max<std::uint64_t>(next, 1);
        report.snapshot_generation = next_generation - 1;
    }

    // Replay the log with repair: a torn tail is truncated, and records
    // the snapshot covers (left by a crash before the log's truncation)
    // are skipped.  The repaired size is the committed prefix.
    const std::string wal_path = dir_ + "/" + kWalName;
    std::uint64_t committed = 0;
    if (fs::exists(wal_path)) {
        ReplayResult replay = replay_wal(wal_path, /*repair=*/true);
        report.truncated_bytes = replay.truncated_bytes;
        for (std::string& payload : replay.payloads) {
            committed += kFrameHeaderBytes + payload.size();
            PublishRecord record = decode_publish_record(payload, wal_path);
            if (record.generation < next_generation) {
                continue;  // already covered by the snapshot
            }
            registry.restore(record.name, std::move(record.models),
                             record.generation);
            mirror[record.name] = {record.generation, std::move(payload)};
            next_generation = record.generation + 1;
            ++report.wal_records;
        }
    }

    std::lock_guard lock(mutex_);
    FPM_CHECK(!stopped_ && !wal_.is_open(),
              "store went live while recover() was replaying");
    mirror_ = std::move(mirror);
    next_generation_ = next_generation;
    last_snapshot_generation_ = report.snapshot_generation;
    wal_.open(wal_path, committed);
    fsync_dir(dir_);

    report.recovered_generation = next_generation_ - 1;
    report.sets = mirror_.size();
    recovery_ = report;

    static auto& recovered_gauge =
        obs::MetricsRegistry::global().gauge("store.recovered_generation");
    recovered_gauge.set(static_cast<std::int64_t>(report.recovered_generation));
    return report;
}

void ModelStore::attach(serve::ModelRegistry& registry) {
    {
        std::lock_guard lock(mutex_);
        FPM_CHECK(!stopped_, "store is stopped");
        FPM_CHECK(attached_ == nullptr, "store is already attached");
        if (!wal_.is_open()) {
            const std::string wal_path = dir_ + "/" + kWalName;
            const std::string snapshot_path = dir_ + "/" + kSnapshotName;
            std::error_code ec;
            FPM_CHECK(fs::file_size(wal_path, ec) == 0 || ec,
                      wal_path + " holds records; recover() must run "
                                 "before attach()");
            FPM_CHECK(!fs::exists(snapshot_path),
                      snapshot_path + " exists; recover() must run before "
                                      "attach()");
            wal_.open(wal_path, 0);
        }
        attached_ = &registry;
    }
    // Content the registry already holds that the log does not (sets
    // loaded before the store existed) is logged now, so attach() is a
    // durability barrier, not just a subscription.  Generation order
    // keeps the log's order the registry's (see records_after()).
    auto sets = registry.snapshot();
    std::sort(sets.begin(), sets.end(), [](const auto& a, const auto& b) {
        return a->generation < b->generation;
    });
    for (const auto& set : sets) {
        bool logged = false;
        {
            std::lock_guard lock(mutex_);
            const auto it = mirror_.find(set->name);
            logged = it != mirror_.end() &&
                     it->second.generation == set->generation;
        }
        if (!logged) {
            append(*set);
        }
    }
    registry.set_put_observer(
        [this](const serve::ModelSet& set) { this->append(set); });
}

void ModelStore::append(const serve::ModelSet& set) {
    static auto& appended_counter =
        obs::MetricsRegistry::global().counter("store.appended");
    static auto& bytes_counter =
        obs::MetricsRegistry::global().counter("store.bytes");
    static auto& fsync_histogram =
        obs::MetricsRegistry::global().histogram("store.fsync_seconds");

    {
        std::lock_guard lock(mutex_);
        FPM_CHECK(!stopped_, "store is stopped");
        FPM_CHECK(wal_.is_open(), "store log is not open");

        std::string payload = encode_publish_record(set);
        const std::uint64_t before = wal_.committed_bytes();
        const std::uint64_t frame_size = wal_.append(payload);
        if (options_.fsync_policy == FsyncPolicy::kAlways) {
            const auto start = Clock::now();
            try {
                wal_.fsync();
            } catch (...) {
                // The record is written but not durable: roll it back so
                // a failed publish leaves no trace (the registry veto
                // depends on this — log and registry must agree record
                // for record).
                wal_.truncate_to(before);
                throw;
            }
            fsync_histogram.record(
                std::chrono::duration<double>(Clock::now() - start).count());
        }

        mirror_[set.name] = {set.generation, std::move(payload)};
        next_generation_ = std::max(next_generation_, set.generation + 1);
        ++stats_.appended;
        stats_.bytes += frame_size;
        appended_counter.add(1);
        bytes_counter.add(frame_size);

        ++appends_since_snapshot_;
        if (options_.snapshot_every > 0 &&
            appends_since_snapshot_ >= options_.snapshot_every) {
            try {
                snapshot_locked();
            } catch (...) {
                // The append itself is durable; a failed compaction (full
                // disk, injected store.snapshot fault) retries at the
                // next threshold and must not fail the publish.
            }
        }
    }
    fire_commit_hook();
}

void ModelStore::snapshot() {
    std::lock_guard lock(mutex_);
    FPM_CHECK(!stopped_, "store is stopped");
    snapshot_locked();
}

void ModelStore::snapshot_locked() {
    const std::uint64_t generation = next_generation_ - 1;
    if (mirror_.empty() || generation == last_snapshot_generation_) {
        return;  // nothing new to compact
    }

    std::string contents = encode_frame(
        std::string(kSnapshotMagic) + ' ' + kSnapshotVersion + " next=" +
        std::to_string(next_generation_) +
        " sets=" + std::to_string(mirror_.size()));
    for (const auto& [name, record] : mirror_) {
        contents += encode_frame(record.payload);
    }

    const std::string final_path = dir_ + "/" + kSnapshotName;
    const std::string tmp_path = final_path + ".tmp";
    write_file_durably(tmp_path, contents);

    static auto& snapshot_fault = fault::point("store.snapshot");
    if (snapshot_fault.fire()) {
        // Simulated crash between writing the temp file and publishing
        // it: the temp file is left behind exactly as a real crash
        // would, and recovery ignores/removes it.
        throw serve::ServiceError(serve::ErrorCode::kStoreUnavailable,
                                  "injected fault: store.snapshot");
    }

    std::error_code ec;
    fs::rename(tmp_path, final_path, ec);
    FPM_CHECK(!ec, "rename(" + tmp_path + " -> " + final_path +
                       "): " + ec.message());
    fsync_dir(dir_);

    // The rename is durable, so the snapshot now covers every record in
    // the log.  The truncation needs no fsync: a crash that leaves the
    // log untruncated leaves only records below the snapshot's next=,
    // and recover() skips those.
    wal_.truncate_to(0);

    last_snapshot_generation_ = generation;
    appends_since_snapshot_ = 0;
    ++stats_.snapshots;
    static auto& snapshots_counter =
        obs::MetricsRegistry::global().counter("store.snapshots");
    snapshots_counter.add(1);
}

void ModelStore::stop() {
    detach();
    std::lock_guard lock(mutex_);
    if (stopped_) {
        return;
    }
    if (wal_.is_open()) {
        try {
            snapshot_locked();
        } catch (...) {
            // Best-effort compaction; the WAL already holds everything.
        }
        wal_.close();
    }
    stopped_ = true;
}

void ModelStore::abandon() noexcept {
    detach();
    std::lock_guard lock(mutex_);
    wal_.close();
    stopped_ = true;
}

void ModelStore::detach() {
    serve::ModelRegistry* registry = nullptr;
    {
        std::lock_guard lock(mutex_);
        registry = attached_;
        attached_ = nullptr;
    }
    if (registry != nullptr) {
        // Outside the store mutex: set_put_observer takes the registry
        // mutex, which in-flight observer calls hold while waiting for
        // the store mutex — taking them in the other order would
        // deadlock.
        registry->set_put_observer(nullptr);
    }
}

RecoveryReport ModelStore::last_recovery() const {
    std::lock_guard lock(mutex_);
    return recovery_;
}

StoreStats ModelStore::stats() const {
    std::lock_guard lock(mutex_);
    return stats_;
}

std::uint64_t ModelStore::committed_generation() const {
    std::lock_guard lock(mutex_);
    return next_generation_ - 1;
}

std::vector<StoredRecord> ModelStore::records_after(
    std::uint64_t generation) const {
    std::vector<StoredRecord> records;
    {
        std::lock_guard lock(mutex_);
        for (const auto& [name, record] : mirror_) {
            if (record.generation > generation) {
                records.push_back(record);
            }
        }
    }
    std::sort(records.begin(), records.end(),
              [](const StoredRecord& a, const StoredRecord& b) {
                  return a.generation < b.generation;
              });
    return records;
}

void ModelStore::set_commit_hook(std::function<void()> hook) {
    std::lock_guard lock(hook_mutex_);
    commit_hook_ = std::move(hook);
}

void ModelStore::fire_commit_hook() {
    std::function<void()> hook;
    {
        std::lock_guard lock(hook_mutex_);
        hook = commit_hook_;
    }
    if (hook) {
        hook();
    }
}

} // namespace fpm::store
