#include "fpm/repl/replication_server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>

#include "fpm/fault/fault.hpp"
#include "fpm/obs/metrics.hpp"
#include "fpm/store/wal.hpp"

namespace fpm::repl {

namespace {

/// Process-global replication-server counters.
struct ServerMetrics {
    obs::Counter& frames_sent;
    obs::Counter& heartbeats_sent;
    obs::Gauge& sessions;

    static const ServerMetrics& get() {
        static auto& registry = obs::MetricsRegistry::global();
        static const ServerMetrics metrics{
            registry.counter("repl.frames_sent"),
            registry.counter("repl.heartbeats_sent"),
            registry.gauge("repl.sessions")};
        return metrics;
    }
};

/// Per-send/recv deadline of a follower socket: a follower that stops
/// reading stalls its session's send at most this long.
constexpr double kSessionIoTimeout = 5.0;

/// Parses the applied generation of a `REPL HELLO <generation>` line.
bool parse_hello(const std::string& line, std::uint64_t& generation) {
    static const std::string kHello = "REPL HELLO ";
    if (line.rfind(kHello, 0) != 0) {
        return false;
    }
    const char* const end = line.data() + line.size();
    const auto [ptr, ec] =
        std::from_chars(line.data() + kHello.size(), end, generation);
    return ec == std::errc() && ptr == end;
}

} // namespace

ReplicationServer::ReplicationServer(ReplicationLog& log,
                                     ReplServerConfig config)
    : log_(log), config_(std::move(config)) {
    const serve::Listener listener =
        serve::listen_tcp(config_.bind_address, config_.port, false);
    listen_fd_ = listener.fd;
    port_ = listener.port;
    acceptor_ = std::thread([this] { accept_loop(); });
}

ReplicationServer::~ReplicationServer() { stop(); }

std::size_t ReplicationServer::sessions() const {
    std::lock_guard lock(sessions_mutex_);
    std::size_t live = 0;
    for (const auto& session : sessions_) {
        if (!session->done.load(std::memory_order_acquire)) {
            ++live;
        }
    }
    return live;
}

void ReplicationServer::stop() {
    if (stopped_.exchange(true)) {
        return;
    }
    if (listen_fd_ >= 0) {
        ::shutdown(listen_fd_, SHUT_RDWR);
    }
    if (acceptor_.joinable()) {
        acceptor_.join();
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    std::vector<std::unique_ptr<Session>> sessions;
    {
        std::lock_guard lock(sessions_mutex_);
        sessions.swap(sessions_);
    }
    for (auto& session : sessions) {
        // The session thread never closes its socket (a concurrent close
        // would race fd reuse); shutdown() wakes it, join() makes the
        // close safe, and destroying the Session closes.
        session->conn.shutdown();
        if (session->thread.joinable()) {
            session->thread.join();
        }
    }
}

void ReplicationServer::reap_finished_locked() {
    for (auto it = sessions_.begin(); it != sessions_.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
            if ((*it)->thread.joinable()) {
                (*it)->thread.join();
            }
            it = sessions_.erase(it);  // closes the session's socket
        } else {
            ++it;
        }
    }
}

void ReplicationServer::accept_loop() {
    while (!stopped_.load(std::memory_order_relaxed)) {
        pollfd pfd{};
        pfd.fd = listen_fd_;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, 200);
        if (ready < 0 && errno == EINTR) {
            continue;
        }
        if (stopped_.load(std::memory_order_relaxed)) {
            return;
        }
        if (ready <= 0) {
            continue;
        }
        const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0) {
            continue;  // racing stop(), or a transient accept failure
        }

        std::lock_guard lock(sessions_mutex_);
        reap_finished_locked();
        auto session = std::make_unique<Session>();
        Session& ref = *session;
        ref.conn = serve::LineConn(fd, kSessionIoTimeout);
        sessions_.push_back(std::move(session));
        ref.thread = std::thread([this, &ref] { run_session(ref); });
    }
}

void ReplicationServer::run_session(Session& session) {
    ServerMetrics::get().sessions.add(1);
    try {
        serve_follower(session.conn);
    } catch (const serve::TransportError&) {
        // The follower hung up, stalled past the I/O deadline or sent
        // an over-long line.
    } catch (...) {
        // Any other failure also just ends the session; the follower
        // reconnects.
    }
    // shutdown() tells the peer now (it must not wait out a recv
    // timeout to notice); the fd itself stays open until reap/stop
    // joins this thread and closes it, so no close races fd reuse.
    session.conn.shutdown();
    ServerMetrics::get().sessions.add(-1);
    session.done.store(true, std::memory_order_release);
}

void ReplicationServer::serve_follower(serve::LineConn& conn) {
    // -- handshake ----------------------------------------------------
    const std::string hello = conn.read_line(kMaxReplLineBytes);
    static auto& handshake_fault = fault::point("repl.handshake");
    if (handshake_fault.fire()) {
        return;  // primary "crashes" before answering
    }
    std::uint64_t generation = 0;
    if (!parse_hello(hello, generation)) {
        conn.send("ERR internal malformed REPL handshake\n");
        return;
    }
    store::ModelStore& store = log_.store();
    const std::uint64_t committed = store.committed_generation();
    if (generation > committed) {
        // The replica applied history this primary never committed (a
        // node re-parented or demoted onto a primary behind it).
        // Streaming on top would leave it serving fingerprints the
        // primary never had, so refuse; the replica backs off and
        // retries, and its lag keeps growing where operators look.
        conn.send("ERR internal replica generation " +
                  std::to_string(generation) +
                  " is ahead of the primary's committed generation " +
                  std::to_string(committed) + "\n");
        return;
    }
    conn.send("OK REPL STREAM committed=" + std::to_string(committed) + "\n");

    // -- push stream --------------------------------------------------
    static auto& send_fault = fault::point("repl.send");
    std::vector<store::StoredRecord> records;
    while (!stopped_.load(std::memory_order_relaxed)) {
        switch (log_.next(generation, records, config_.heartbeat_interval)) {
        case ReplicationLog::Next::kRecords:
            for (const store::StoredRecord& record : records) {
                if (send_fault.fire()) {
                    return;  // "crash" mid-ship
                }
                const std::string frame = store::encode_frame(record.payload);
                conn.send("REPL FRAME bytes=" + std::to_string(frame.size()) +
                          "\n" + frame);
                frames_sent_.fetch_add(1, std::memory_order_relaxed);
                ServerMetrics::get().frames_sent.add(1);
            }
            break;
        case ReplicationLog::Next::kTimeout:
            conn.send("REPL PING committed=" +
                      std::to_string(store.committed_generation()) + "\n");
            ServerMetrics::get().heartbeats_sent.add(1);
            break;
        case ReplicationLog::Next::kStopped:
            return;
        }
    }
}

} // namespace fpm::repl
