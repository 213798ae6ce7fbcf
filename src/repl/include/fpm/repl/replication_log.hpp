/// \file replication_log.hpp
/// \brief Primary-side iterator over the durable store's committed WAL.
///
/// Replication in fpm::repl is WAL shipping: the primary's write-ahead
/// log (fpm::store) is already a total order of every committed publish
/// — an operator LOAD or an adapt republish — framed with the
/// length+CRC32 format recovery validates.  The ReplicationLog turns
/// that on-disk order into a stream: given a *position* (segment id,
/// byte offset), next() returns the committed frame at that position,
/// advancing the position past it, and blocks (bounded by a timeout)
/// when the follower has caught up to the commit point, waking on the
/// store's commit hook the moment the next publish lands.
///
/// Positions are primary WAL coordinates — a replica remembers the
/// position the stream last handed it and resumes there after a
/// disconnect.  Three boundary cases make resumption exact:
///
///  * **segment boundary, segment still on disk** — a sealed (rotated
///    but not yet GC'd) segment is read to its end, then the position
///    advances to the next existing segment at offset 0;
///  * **segment boundary, segment GC'd** — a follower standing exactly
///    at the seal point of the most recently rotated segment
///    (ModelStore::last_seal()) has missed nothing: the snapshot that
///    triggered the rotation covers precisely what the follower already
///    applied, so the position silently advances to the next segment;
///  * **anywhere else in a GC'd segment** — frames are gone for good:
///    next() reports kGap and the server falls back to a full snapshot
///    transfer (ModelStore::replication_snapshot()).
///
/// Locking: next() never holds the log mutex while calling into the
/// store (the store's commit hook — which takes the log mutex — runs
/// after the store mutex is released, so the only ordering either
/// thread ever sees is store-then-log).  Multiple sessions may call
/// next() concurrently with independent positions; the log itself is
/// stateless apart from the wakeup machinery.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "fpm/store/model_store.hpp"

namespace fpm::repl {

/// Longest REPL control line (HELLO, the handshake replies, SNAP/FRAME
/// headers, PING), in bytes before the newline; both ends refuse a
/// longer one.
inline constexpr std::size_t kMaxReplLineBytes = 4096;

/// A primary WAL coordinate: frame boundaries only.
struct ReplPosition {
    std::uint64_t segment = 0;
    std::uint64_t offset = 0;

    [[nodiscard]] std::string to_string() const {
        return std::to_string(segment) + ":" + std::to_string(offset);
    }
    /// Parses "seg:off"; throws fpm::Error on malformed input.
    [[nodiscard]] static ReplPosition parse(const std::string& text);

    friend bool operator==(const ReplPosition& a,
                           const ReplPosition& b) noexcept {
        return a.segment == b.segment && a.offset == b.offset;
    }
};

/// See file comment.
class ReplicationLog {
public:
    enum class Next {
        kFrame,    ///< one committed frame returned, position advanced
        kTimeout,  ///< caught up; nothing committed within the timeout
        kGap,      ///< position unrecoverable: snapshot fallback required
        kStopped,  ///< stop() was called
    };

    /// Installs itself as the store's commit hook.  The store must
    /// outlive the log; destruction clears the hook.
    explicit ReplicationLog(store::ModelStore& store);
    ~ReplicationLog();

    ReplicationLog(const ReplicationLog&) = delete;
    ReplicationLog& operator=(const ReplicationLog&) = delete;

    /// Returns the committed frame payload at `pos`, advancing `pos`
    /// past it (and across segment boundaries, see file comment).
    /// Blocks up to `timeout_seconds` when caught up.  On kGap/kTimeout/
    /// kStopped, `pos` and `payload` are unchanged except that a
    /// seal-point or sealed-segment-end position may have silently
    /// advanced to the next segment.
    Next next(ReplPosition& pos, std::string& payload,
              double timeout_seconds);

    /// Non-consuming handshake probe: can a stream resume from `pos`
    /// without a snapshot transfer?  (True for the commit point itself,
    /// any committed offset of an existing segment, and the last seal
    /// point.)
    [[nodiscard]] bool position_available(const ReplPosition& pos) const;

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
