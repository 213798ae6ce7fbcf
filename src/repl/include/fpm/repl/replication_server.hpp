/// \file replication_server.hpp
/// \brief Primary-side replication listener: publish shipping over TCP.
///
/// Speaks the v6 REPL verbs (docs/protocol.md) on a dedicated port:
///
///     replica:  REPL HELLO <applied generation>\n
///     primary:  OK REPL STREAM committed=<gen>\n
///     then an unbounded push stream of
///               REPL FRAME bytes=<m>\n + m frame bytes
///     interleaved, when idle, with
///               REPL PING committed=<gen>\n
///
/// The frames are the store's latest record of every set above the
/// replica's generation, in strictly increasing generation order
/// (ReplicationLog::next()), each in the store's WAL frame encoding
/// (length+CRC32 header + publish record payload), so the replica
/// validates the stream with the same decoder recovery uses.  A replica
/// whose generation is above the primary's committed one holds history
/// this primary never had: it gets `ERR internal ...` and is closed.
///
/// Control lines are bounded by kMaxReplLineBytes in both directions; a
/// follower that sends a longer one is dropped.
///
/// Threading: a dedicated acceptor thread plus one thread per follower
/// session, deliberately *not* the serve reactor pool.  The reactor is
/// shaped for request-reply (read a line, write a line, return to
/// epoll); a replication session is a long-lived half-duplex push
/// stream that blocks in ReplicationLog::next() waiting for commits —
/// parking that wait inside an epoll loop would either busy-poll or
/// require cross-thread wakeup plumbing for, realistically, a handful
/// of replicas.  Thread-per-follower keeps the hot serve path and the
/// replication path fully independent.
///
/// Fault points: `repl.handshake` (drop the connection instead of
/// answering HELLO) and `repl.send` (drop it instead of shipping a
/// frame) — both simulate a primary crash mid-protocol; the replica's
/// reconnect + generation resume must make either invisible.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fpm/repl/replication_log.hpp"
#include "fpm/serve/line_conn.hpp"

namespace fpm::repl {

/// Transport knobs of the replication listener.
struct ReplServerConfig {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;          ///< 0 = ephemeral
    /// Idle heartbeat cadence: a PING goes out whenever no frame was
    /// committed for this long (also bounds stop() latency).
    double heartbeat_interval = 1.0;
};

/// See file comment.
class ReplicationServer {
public:
    /// Binds and starts the acceptor immediately; throws fpm::Error
    /// when the listener cannot be set up.  `log` must outlive the
    /// server.
    ReplicationServer(ReplicationLog& log, ReplServerConfig config);

    /// stop()s.
    ~ReplicationServer();

    ReplicationServer(const ReplicationServer&) = delete;
    ReplicationServer& operator=(const ReplicationServer&) = delete;

    /// Stops accepting, severs every follower session and joins all
    /// threads.  Idempotent.
    void stop();

    /// The bound port (resolved when config.port was 0).
    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    /// Follower sessions currently connected.
    [[nodiscard]] std::size_t sessions() const;

    /// Lifetime counters.
    [[nodiscard]] std::uint64_t frames_sent() const noexcept {
        return frames_sent_.load(std::memory_order_relaxed);
    }

private:
    /// One follower.  Its thread never closes `conn`: stop() and the
    /// reaper shut it down, join, and destroying the Session closes it.
    struct Session {
        serve::LineConn conn;
        std::atomic<bool> done{false};
        std::thread thread;
    };

    void accept_loop();
    void run_session(Session& session);
    /// Handshake plus push stream; returns (or throws) when the session
    /// should end.
    void serve_follower(serve::LineConn& conn);
    void reap_finished_locked();

    ReplicationLog& log_;
    const ReplServerConfig config_;

    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stopped_{false};
    std::thread acceptor_;

    mutable std::mutex sessions_mutex_;
    std::vector<std::unique_ptr<Session>> sessions_;

    std::atomic<std::uint64_t> frames_sent_{0};
};

} // namespace fpm::repl
