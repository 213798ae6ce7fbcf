/// \file server.hpp
/// \brief Event-driven TCP server speaking the partition-service protocol.
///
/// The server runs a pool of ServeConfig::num_reactors reactor threads.
/// Each reactor owns its own epoll instance, its own non-blocking
/// listening socket and its own eventfd mailbox (RequestEngine
/// completions and stop() wake-ups); with more than one reactor the
/// listeners are bound with SO_REUSEPORT, so the kernel load-balances
/// accepted connections across them and a connection lives its whole
/// life on one reactor — there is no cross-reactor handoff on the hot
/// path and no shared reactor state to lock.  Each connection is a strict
/// request-reply sequence: a client may write many request lines
/// back-to-back, but the loop takes one line, answers it inline or hands
/// it to the engine's thread pool, and takes the next only once that
/// reply is in the write buffer.  So requests execute in arrival order,
/// each sees the effects of every earlier request on its connection, and
/// replies leave in request order.  The loop reads from a socket (one
/// 16 KiB recv per readable event) only while its connection has nothing
/// in flight and less than kMaxLineBytes of unsent output; otherwise the
/// bytes stay in the kernel and TCP flow control holds the peer back.
/// Per connection, input is at most kMaxLineBytes + 16 KiB and unsent
/// output at most kMaxLineBytes + one reply.  Lifecycle management:
///
///  * admission control — the ServeConfig::max_connections budget is
///    *global* (one atomic shared by the pool); accepts beyond it are
///    answered `ERR busy` and closed (serve.reactor.rejected);
///  * idle eviction — each connection carries the time of its last
///    read or queued reply; once per tick (idle_timeout / 8, clamped
///    to 5 ms .. 1 s) each reactor closes the connections with nothing
///    in flight whose stamp is ServeConfig::idle_timeout old, a client
///    that stopped reading its replies included;
///  * graceful drain — stop() stops accepting on every listener, lets
///    each reactor finish its in-flight requests and flush unsent
///    replies for at most 5 s, then closes.  Lines still buffered
///    behind them get no reply.
///
/// The loop answers PING, QUIT, STATS, HEALTH, MODELS and every
/// PARTITION inline, computing a miss itself (so num_reactors is what
/// spreads computes over cores); FEEDBACK and LOAD, which write or read
/// a file, run handle_request() on the engine pool.  Port 0
/// picks an ephemeral port (the first listener binds it, the rest join
/// it via SO_REUSEPORT); port() reports the bound one, which is how
/// tests and the bench avoid collisions.  Every reactor event feeds the
/// process-global `serve.reactor.*` metrics, so STATS aggregates the
/// whole pool no matter which reactor answers it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "fpm/serve/protocol.hpp"
#include "fpm/serve/serve_config.hpp"

namespace fpm::serve {

/// See file comment.
class SocketServer {
public:
    /// The engine (and its registry) must outlive the server.
    SocketServer(RequestEngine& engine, ServeConfig config);
    explicit SocketServer(RequestEngine& engine);  ///< default ServeConfig
    ~SocketServer();

    SocketServer(const SocketServer&) = delete;
    SocketServer& operator=(const SocketServer&) = delete;

    /// Binds every listener, then starts the reactor threads; throws
    /// fpm::Error on socket failures or if already started (nothing
    /// leaks on a mid-pool failure).
    void start();

    /// Graceful drain: stops accepting on every listener, lets each
    /// reactor's in-flight requests finish and their responses flush
    /// (for at most 5 s), joins the reactor threads and closes
    /// everything.  Lines a connection sent behind its in-flight
    /// request are dropped unanswered.  Idempotent.
    void stop();

    /// Bound port (valid after start()).
    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    [[nodiscard]] bool running() const noexcept { return running_.load(); }

    /// Total connections accepted so far (admission rejects excluded).
    [[nodiscard]] std::size_t connections_accepted() const noexcept {
        return accepted_.load();
    }

    /// Currently open connections (across all reactors; this is the
    /// global admission budget's live value).
    [[nodiscard]] std::size_t open_connections() const noexcept {
        return open_.load();
    }

    /// Reactor threads of the running pool (0 before start()).
    [[nodiscard]] std::size_t num_reactors() const noexcept {
        return reactors_.size();
    }

    [[nodiscard]] const ServeConfig& config() const noexcept {
        return config_;
    }

private:
    struct Reactor;  ///< one loop's state and descriptors; lives only
                     ///  while running

    RequestEngine& engine_;
    ServeConfig config_;
    std::uint16_t port_ = 0;
    std::atomic<bool> running_{false};
    std::atomic<std::size_t> accepted_{0};
    std::atomic<std::size_t> open_{0};  ///< global admission budget
    std::vector<std::unique_ptr<Reactor>> reactors_;
    std::vector<std::thread> threads_;
};

} // namespace fpm::serve
