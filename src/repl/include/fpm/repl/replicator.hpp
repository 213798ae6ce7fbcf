/// \file replicator.hpp
/// \brief Replica-side replication client: connect, catch up, tail.
///
/// The Replicator owns one background thread that keeps a replica's
/// registry converged with its primary: it connects to the primary's
/// replication port, sends `REPL HELLO <generation>` with the highest
/// generation it has applied (after a restart, the one its own store
/// recovered; 0 on a fresh start), and then applies the FRAME records
/// the primary pushes — the latest record of every set above that
/// generation, in generation order — and its PINGs, until stopped or
/// disconnected.
///
/// Applying a record goes through the same machinery a primary publish
/// does, so everything downstream behaves identically on both roles:
///
///  * when the record's generation is exactly the registry's next one
///    (the steady-state streaming case), ModelRegistry::put() installs
///    it, reproducing the primary's generation bit-for-bit and firing
///    the local store's write-ahead observer, so the replica's own WAL
///    logs the record;
///  * otherwise (a catch-up skips generations that later records of the
///    same set superseded) ModelRegistry::restore() installs the
///    explicit generation and the record is appended to the local store
///    directly;
///  * either way the engine's plan cache is invalidated under the old
///    fingerprint, exactly as ModelPublisher does on the primary —
///    cached plans for the superseded generation can never be served;
///  * records at or below the last applied generation are dropped.
///
/// After every applied record the installed generation and fingerprint
/// are checked against the ones the primary recorded; a mismatch (or an
/// armed `repl.apply` fault) severs the connection, and the bounded
/// exponential backoff (ServeConfig::backoff_base/backoff_max — the
/// same knobs the serve client retries with) paces the reconnect; so
/// does a primary that refuses the handshake because the replica is
/// ahead of it.  A session that completed its handshake restarts the
/// backoff, so a stream severed after it was established (a primary
/// restart) costs one backoff_base.  The connection is a
/// serve::LineConn using ServeConfig::connect_timeout and recv_timeout;
/// a primary that stays silent past recv_timeout (it heartbeats every
/// heartbeat_interval when idle) counts as dead, and one that sends a
/// control line over kMaxReplLineBytes or announces a frame over the
/// store's kMaxFrameBytes is dropped before the bytes are buffered.
///
/// Observability: the replication status recorded on the engine (role,
/// source, lag, applied generation — surfaced in its STATS/HEALTH) plus
/// repl.* counters/gauges/histograms (docs/operations.md).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "fpm/repl/replication_log.hpp"
#include "fpm/serve/client.hpp"
#include "fpm/serve/request_engine.hpp"
#include "fpm/store/model_store.hpp"

namespace fpm::repl {

/// Replica-side knobs.
struct ReplicatorConfig {
    serve::Endpoint source;      ///< the primary's replication endpoint
    /// Transport + backoff knobs: connect_timeout, recv_timeout,
    /// backoff_base, backoff_max are consumed; the rest is ignored.
    serve::ServeConfig transport;
};

/// See file comment.
class Replicator {
public:
    /// `engine` is the replica's serving engine (its registry receives
    /// the replicated sets); `local_store` may be null (no replica-side
    /// durability) and, when set, must already be attach()ed to the
    /// engine's registry so the put() path logs through the observer.
    /// Both must outlive the replicator.  start() begins replication.
    Replicator(serve::RequestEngine& engine, store::ModelStore* local_store,
               ReplicatorConfig config);

    /// stop()s.
    ~Replicator();

    Replicator(const Replicator&) = delete;
    Replicator& operator=(const Replicator&) = delete;

    /// Spawns the replication thread (idempotent).
    void start();

    /// Severs the connection, stops reconnecting and joins the thread.
    /// Idempotent.
    void stop();

    /// Highest generation applied locally.
    [[nodiscard]] std::uint64_t applied_generation() const noexcept {
        return applied_generation_.load(std::memory_order_relaxed);
    }
    /// FRAME records applied.
    [[nodiscard]] std::uint64_t frames_applied() const noexcept {
        return frames_applied_.load(std::memory_order_relaxed);
    }
    /// Reconnect attempts after a connect/stream/apply failure.
    [[nodiscard]] std::uint64_t reconnects() const noexcept {
        return reconnects_.load(std::memory_order_relaxed);
    }
    /// Sessions that started from generation 0 against a non-empty
    /// primary: the only full-state transfer.
    [[nodiscard]] std::uint64_t snapshots_received() const noexcept {
        return snapshots_received_.load(std::memory_order_relaxed);
    }
    /// True while a stream is established (handshake done, not torn).
    [[nodiscard]] bool connected() const noexcept {
        return connected_.load(std::memory_order_relaxed);
    }

private:
    void run();
    void run_once();
    void apply_frame(const std::string& frame);
    void apply_record(const store::PublishRecord& record);
    void backoff(int consecutive_failures);

    serve::RequestEngine& engine_;
    store::ModelStore* local_store_;
    const ReplicatorConfig config_;

    std::thread thread_;
    std::atomic<bool> stop_{false};
    std::atomic<int> fd_{-1};  ///< live socket, for stop() to sever
    std::mutex stop_mutex_;
    std::condition_variable stop_cv_;

    std::atomic<std::uint64_t> applied_generation_{0};
    std::atomic<std::uint64_t> frames_applied_{0};
    std::atomic<std::uint64_t> reconnects_{0};
    std::atomic<std::uint64_t> snapshots_received_{0};
    std::atomic<bool> connected_{false};
    bool started_ = false;
};

} // namespace fpm::repl
