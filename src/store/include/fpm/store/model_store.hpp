/// \file model_store.hpp
/// \brief Durable model store: WAL + snapshot crash recovery for the
///        partition service.
///
/// FPMs are hours of statistically reliable sweeps per device, and the
/// adaptation loop (fpm::adapt) keeps refining them online — so every
/// published registry generation is expensive state that, before this
/// subsystem, lived only in RAM.  ModelStore makes the published history
/// durable with the classic WAL + checkpoint design:
///
///  * every ModelRegistry::put (an operator LOAD, an adapt republish) is
///    appended to an append-only write-ahead log *before* the registry
///    commits it (the registry's put-observer runs the append with
///    write-ahead veto semantics: a failed append fails the publish and
///    the registry keeps its previous content);
///  * every StoreOptions::snapshot_every appends the full registry
///    content is compacted into the snapshot file (written to a temp
///    name and rename()d into place, so a snapshot is atomically either
///    complete or absent), after which the log is truncated;
///  * recover() rebuilds a registry from the snapshot plus the log,
///    truncating a torn or CRC-corrupt log tail instead of failing —
///    after a kill -9 the reconstructed registry carries the same content
///    fingerprints and the same generation counters as the pre-crash
///    one, so served plans are bit-for-bit identical.  A snapshot that
///    does not validate fails recovery: nothing else on disk holds its
///    sets.
///
/// Layout of the store directory:
///
///     wal.log             publish records since the last snapshot
///     snapshot.fpms       compacted registry (header frame
///                         `fpmstore v1 next=<n> sets=<k>`, then one
///                         publish record per set)
///     snapshot.fpms.tmp   in-progress snapshot (ignored, removed)
///
/// Durability knob: FsyncPolicy::kAlways fdatasync()s after every append
/// (a crash loses nothing that was acknowledged); kNever leaves flushing
/// to the OS (bounded loss, no fsync stall on the publish path).
///
/// Fault points for chaos drills: `store.append` (torn half-frame +
/// failed publish), `store.fsync` (append rolled back + failed publish),
/// `store.snapshot` (temp file abandoned before rename; appends keep
/// extending the log).  Metrics: store.appended, store.bytes,
/// store.snapshots counters, the store.fsync_seconds histogram and the
/// store.recovered_generation gauge — all surfaced in the STATS wire
/// reply and documented in docs/operations.md.
///
/// Threading: all public methods are safe to call concurrently; the
/// append path is serialized by the registry mutex (observer) plus the
/// store's own mutex.  recover() must run before attach().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "fpm/serve/model_registry.hpp"
#include "fpm/store/wal.hpp"

namespace fpm::store {

/// One WAL/snapshot publish record, decoded.  The encoded form is the
/// unit of both durability and replication: a text header line
/// (`publish <name> <generation> <16-hex fingerprint>`) followed by the
/// model text core::write_speed_functions appends, carried inside a
/// length+CRC WAL frame on disk and on the replication stream alike.
struct PublishRecord {
    std::string name;
    std::uint64_t generation = 0;
    std::uint64_t fingerprint = 0;
    std::vector<core::SpeedFunction> models;
};

/// Renders the publish record for `set` (the WAL frame payload).
[[nodiscard]] std::string encode_publish_record(const serve::ModelSet& set);

/// Parses and validates a publish record in place; `origin` names the
/// source in error messages.  Throws fpm::Error on a malformed header
/// (four tokens, the generation positive decimal digits, the fingerprint
/// 16 hex digits) or when the recomputed model fingerprint disagrees
/// with the recorded one.
[[nodiscard]] PublishRecord decode_publish_record(std::string_view payload,
                                                  const std::string& origin);

/// When the WAL is made durable relative to a publish acknowledgement.
enum class FsyncPolicy {
    kAlways,  ///< fdatasync after every append (default)
    kNever,   ///< leave flushing to the OS page cache
};

/// Parses "always" / "never"; throws fpm::Error on anything else.
[[nodiscard]] FsyncPolicy parse_fsync_policy(std::string_view text);
[[nodiscard]] std::string_view to_string(FsyncPolicy policy) noexcept;

/// See file comment.
struct StoreOptions {
    FsyncPolicy fsync_policy = FsyncPolicy::kAlways;
    /// Appends between automatic compacted snapshots; 0 disables
    /// auto-snapshots (stop() still takes the final one).
    std::uint64_t snapshot_every = 8;
};

/// What recover() reconstructed.
struct RecoveryReport {
    std::uint64_t snapshot_generation = 0;   ///< 0 = no usable snapshot
    std::uint64_t wal_records = 0;           ///< WAL suffix records applied
    std::uint64_t truncated_bytes = 0;       ///< torn tail dropped, in bytes
    std::uint64_t recovered_generation = 0;  ///< highest restored generation
    std::size_t sets = 0;                    ///< model sets reconstructed
};

/// Store-side counters (process-lifetime view also lives in fpm::obs).
struct StoreStats {
    std::uint64_t appended = 0;   ///< WAL records written
    std::uint64_t bytes = 0;      ///< WAL bytes written
    std::uint64_t snapshots = 0;  ///< compacted snapshots taken
};

/// A set's latest committed publish record: its generation and the
/// encoded payload the WAL (or the snapshot recovery read) holds.
struct StoredRecord {
    std::uint64_t generation = 0;
    std::string payload;
};

/// See file comment.
class ModelStore {
public:
    /// Opens (creating if needed) the store rooted at `dir`.  Throws
    /// fpm::Error when the directory cannot be created.
    explicit ModelStore(std::string dir, StoreOptions options = {});

    /// stop()s: takes the final snapshot unless abandon()ed.
    ~ModelStore();

    ModelStore(const ModelStore&) = delete;
    ModelStore& operator=(const ModelStore&) = delete;

    /// Rebuilds `registry` from the snapshot plus the log (see file
    /// comment); repairs a torn log tail in place.  Must be called before
    /// attach(), on a registry with no conflicting content.  Idempotent
    /// per store lifetime only in the trivial empty-store case; call
    /// exactly once.  Throws fpm::Error naming the file on an unreadable
    /// file, a snapshot that does not validate, or a directory holding a
    /// numbered `wal-*.log` / `snapshot-*.fpms` file of the older layout
    /// (not on a torn log tail — that truncates).
    RecoveryReport recover(serve::ModelRegistry& registry);

    /// Mirrors the registry's current content into the store and
    /// installs the write-ahead put observer: from here on every put is
    /// logged before it commits.  The store must outlive the registry's
    /// use of the observer; stop()/destruction detaches it.  Without a
    /// prior recover() the directory must hold no store yet: a
    /// non-empty `wal.log` or a `snapshot.fpms` throws fpm::Error naming
    /// the file (the first append would otherwise overwrite the log).
    void attach(serve::ModelRegistry& registry);

    /// Appends one publish record (called by the put observer; exposed
    /// for direct use in tests/tools).  Throws serve::ServiceError
    /// (store_unavailable) when the append or its fsync fails — the WAL
    /// is rolled back to the previous record boundary first, so a failed
    /// publish leaves no trace.
    void append(const serve::ModelSet& set);

    /// Takes a compacted snapshot now (no-op when nothing was appended
    /// since the last one) and truncates the log.  Throws
    /// serve::ServiceError on an injected store.snapshot fault (the temp
    /// file is abandoned; the store keeps appending to the log).
    void snapshot();

    /// Graceful shutdown: detaches from the registry, takes the final
    /// snapshot (best-effort) and closes the log.  Idempotent.
    void stop();

    /// Test hook simulating a crash: detaches and closes *without* the
    /// final snapshot, leaving the on-disk state exactly as a kill -9
    /// would.  The destructor then does nothing.
    void abandon() noexcept;

    [[nodiscard]] RecoveryReport last_recovery() const;
    [[nodiscard]] StoreStats stats() const;
    [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
    [[nodiscard]] const StoreOptions& options() const noexcept {
        return options_;
    }

    // -- replication hooks (consumed by fpm::repl) ---------------------

    /// Highest generation the store has committed (0 when empty).
    [[nodiscard]] std::uint64_t committed_generation() const;

    /// The latest record of every set whose generation is above
    /// `generation`, in generation order.  Appends commit in generation
    /// order, so a follower that applied everything up to `generation`
    /// lacks exactly these records, whatever the snapshots truncated.
    [[nodiscard]] std::vector<StoredRecord> records_after(
        std::uint64_t generation) const;

    /// Installs (or clears, with an empty function) a hook invoked —
    /// outside the store mutex, on the appending thread — after every
    /// committed append.  The ReplicationLog uses it to wake tailing
    /// sessions; the hook must be cheap and must not call back into the
    /// store.
    void set_commit_hook(std::function<void()> hook);

private:
    void snapshot_locked();
    void detach();
    void fire_commit_hook();

    const std::string dir_;
    const StoreOptions options_;

    mutable std::mutex mutex_;
    serve::ModelRegistry* attached_ = nullptr;
    /// Each set's latest committed record, by name — snapshots are
    /// written from here so the snapshot path never re-enters the
    /// registry (whose mutex is held while the observer runs).
    std::map<std::string, StoredRecord> mirror_;
    std::uint64_t next_generation_ = 1;
    WalFile wal_;
    std::uint64_t appends_since_snapshot_ = 0;
    std::uint64_t last_snapshot_generation_ = 0;
    bool stopped_ = false;
    RecoveryReport recovery_;
    StoreStats stats_;

    /// Guarded by hook_mutex_ (not mutex_): the hook is copied out and
    /// invoked after the store mutex is released.
    mutable std::mutex hook_mutex_;
    std::function<void()> commit_hook_;
};

} // namespace fpm::store
