/// \file replication_log.hpp
/// \brief Primary-side wait for the durable store's committed records.
///
/// Replication in fpm::repl ships publish records: every committed
/// publish — an operator LOAD or an adapt republish — carries a
/// registry-wide generation, and the store keeps the latest committed
/// record of every set (ModelStore::records_after()).  A follower's only
/// position is the highest generation it has applied.  Given that
/// generation, next() returns every record above it, in generation
/// order, and advances the generation past them; when there is none it
/// blocks (bounded by a timeout), waking on the store's commit hook the
/// moment the next publish lands.
///
/// One path covers every case: a fresh follower (generation 0) receives
/// the whole registry, a reconnecting or restarted one exactly what it
/// lacks, and a snapshot truncating the log changes nothing, because the
/// records come from the store's memory, not from its files.
///
/// Locking: next() never holds the log mutex while calling into the
/// store (the store's commit hook — which takes the log mutex — runs
/// after the store mutex is released, so the only ordering either
/// thread ever sees is store-then-log).  Multiple sessions may call
/// next() concurrently with independent generations; the log itself is
/// stateless apart from the wakeup machinery.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "fpm/store/model_store.hpp"

namespace fpm::repl {

/// Longest REPL control line (HELLO, the handshake reply, FRAME
/// headers, PING), in bytes before the newline; both ends refuse a
/// longer one.
inline constexpr std::size_t kMaxReplLineBytes = 4096;

/// See file comment.
class ReplicationLog {
public:
    enum class Next {
        kRecords,  ///< records returned, generation advanced
        kTimeout,  ///< caught up; nothing committed within the timeout
        kStopped,  ///< stop() was called
    };

    /// Installs itself as the store's commit hook.  The store must
    /// outlive the log; destruction clears the hook.
    explicit ReplicationLog(store::ModelStore& store);
    ~ReplicationLog();

    ReplicationLog(const ReplicationLog&) = delete;
    ReplicationLog& operator=(const ReplicationLog&) = delete;

    /// Fills `records` with the latest record of every set above
    /// `generation`, in generation order, and advances `generation` to
    /// the last one.  Blocks up to `timeout_seconds` when caught up.
    Next next(std::uint64_t& generation,
              std::vector<store::StoredRecord>& records,
              double timeout_seconds);

    /// Wakes every blocked next() with kStopped; further calls return
    /// kStopped immediately.
    void stop();

    [[nodiscard]] store::ModelStore& store() noexcept { return store_; }

private:
    store::ModelStore& store_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::uint64_t version_ = 0;  ///< bumped by the store's commit hook
    bool stopped_ = false;
};

} // namespace fpm::repl
