#include "fpm/serve/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "fpm/common/error.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/serve/line_conn.hpp"
#include "fpm/serve/reactor_metrics.hpp"

namespace fpm::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Reserved epoll tags; connection ids start above them.
constexpr std::uint64_t kListenTag = 0;
constexpr std::uint64_t kEventTag = 1;
constexpr std::uint64_t kFirstConnId = 2;

/// stop() flushes in-flight replies for at most this long before
/// force-closing the remaining connections.
constexpr auto kDrainDeadline = std::chrono::seconds(5);

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    FPM_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
              std::string("fcntl(O_NONBLOCK): ") + std::strerror(errno));
}

/// Per-connection reactor state.  A connection is a strict request-reply
/// sequence: it holds at most one request in flight, and takes its next
/// line only once that reply is in `outbuf`.
struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    std::string inbuf;
    std::size_t scanned = 0;  ///< leading inbuf bytes known newline-free
    std::string outbuf;       ///< reply bytes not yet written
    bool in_flight = false;   ///< a pool task owes this connection a reply
    /// When the last recv returned.  A read happens only when no complete
    /// line is held, so every line taken since arrived by that read.
    Clock::time_point read_at;
    bool closing = false;     ///< take no more lines; close once drained
    bool reading = true;      ///< EPOLLIN currently registered
    bool want_write = false;  ///< EPOLLOUT currently registered
    std::size_t accounted_bytes = 0;  ///< share of the buffered-bytes gauge
    Clock::time_point last_active;    ///< last read or queued reply

    /// True while the connection may take a line (and so read): not
    /// closing, nothing in flight, unsent output below kMaxLineBytes.
    [[nodiscard]] bool takes_input() const noexcept {
        return !closing && !in_flight && outbuf.size() < kMaxLineBytes;
    }
};

/// A pool reply travelling from a worker thread to the loop.
struct Completion {
    std::uint64_t conn_id = 0;
    std::string text;  ///< fully encoded response line
};

/// The worker-to-loop mailbox.  Owned jointly by the reactor and every
/// in-flight engine callback (shared_ptr), so a callback that fires
/// after the server died still has somewhere safe to write; shutdown()
/// closes the eventfd and turns push() into a no-op.
class CompletionQueue {
public:
    explicit CompletionQueue(int event_fd) : event_fd_(event_fd) {}

    void push(Completion&& completion) {
        std::lock_guard lock(mutex_);
        if (!open_) {
            return;
        }
        items_.push_back(std::move(completion));
        wake_locked();
    }

    /// Wakes the loop without queueing anything (stop()).
    void wake() {
        std::lock_guard lock(mutex_);
        if (open_) {
            wake_locked();
        }
    }

    /// Loop side: clear the eventfd counter and take the batch.
    std::vector<Completion> drain() {
        std::uint64_t counter = 0;
        (void)::read(event_fd_, &counter, sizeof counter);
        std::lock_guard lock(mutex_);
        std::vector<Completion> batch;
        batch.swap(items_);
        return batch;
    }

    void shutdown() {
        std::lock_guard lock(mutex_);
        open_ = false;
        if (event_fd_ >= 0) {
            ::close(event_fd_);
            event_fd_ = -1;
        }
    }

private:
    void wake_locked() {
        const std::uint64_t one = 1;
        (void)::write(event_fd_, &one, sizeof one);
    }

    std::mutex mutex_;
    std::vector<Completion> items_;
    int event_fd_;
    bool open_ = true;
};

} // namespace

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

struct SocketServer::Reactor {
    SocketServer& server;
    RequestEngine& engine;
    const ServeConfig config;
    /// ServeConfig::idle_timeout (<= 0: no eviction) and the eviction
    /// sweep period, clamp(idle / 8, 5 ms, 1 s), so a connection is
    /// evicted at most one tick late.
    const std::chrono::duration<double> idle;
    const std::chrono::milliseconds sweep_tick;
    int epoll_fd = -1;
    int listen_fd = -1;
    std::shared_ptr<CompletionQueue> completions;
    std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns;
    std::atomic<bool> stop_requested{false};
    std::uint64_t next_id = kFirstConnId;
    Clock::time_point now;  ///< read once per epoll wakeup
    Clock::time_point next_sweep;

    Reactor(SocketServer& server_in, RequestEngine& engine_in,
            ServeConfig config_in)
        : server(server_in),
          engine(engine_in),
          config(std::move(config_in)),
          idle(config.idle_timeout),
          sweep_tick(std::chrono::duration_cast<std::chrono::milliseconds>(
              std::clamp(idle / 8, std::chrono::duration<double>(0.005),
                         std::chrono::duration<double>(1.0)))) {}

    Reactor(const Reactor&) = delete;
    Reactor& operator=(const Reactor&) = delete;

    /// Closes whatever the reactor still holds: its connections (keeping
    /// the gauges and the admission budget exact), the listener, the
    /// epoll instance and the mailbox's eventfd.
    ~Reactor() {
        while (!conns.empty()) {
            close_conn(conns.begin()->first);
        }
        if (completions) {
            completions->shutdown();
        }
        if (listen_fd >= 0) {
            ::close(listen_fd);
        }
        if (epoll_fd >= 0) {
            ::close(epoll_fd);
        }
    }

    /// Binds the listener, creates the epoll instance and the mailbox,
    /// and returns the bound port.  On a throw the destructor releases
    /// whatever was already open.
    std::uint16_t open(std::uint16_t port, bool reuse_port) {
        const Listener listener =
            listen_tcp(config.bind_address, port, reuse_port);
        listen_fd = listener.fd;
        set_nonblocking(listen_fd);
        epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
        FPM_CHECK(epoll_fd >= 0,
                  std::string("epoll_create1(): ") + std::strerror(errno));
        const int event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
        FPM_CHECK(event_fd >= 0,
                  std::string("eventfd(): ") + std::strerror(errno));
        completions = std::make_shared<CompletionQueue>(event_fd);
        FPM_CHECK(watch(listen_fd, kListenTag) && watch(event_fd, kEventTag),
                  std::string("epoll_ctl(): ") + std::strerror(errno));
        return listener.port;
    }

    /// Registers `fd` for input events under `tag`; false on failure.
    bool watch(int fd, std::uint64_t tag) {
        epoll_event event{};
        event.events = EPOLLIN;
        event.data.u64 = tag;
        return ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event) == 0;
    }

    [[nodiscard]] static const ReactorMetrics& metrics() {
        return ReactorMetrics::get();
    }

    void update_buffered(Connection& conn) {
        const std::size_t now_bytes = conn.inbuf.size() + conn.outbuf.size();
        metrics().buffered_bytes.add(
            static_cast<std::int64_t>(now_bytes) -
            static_cast<std::int64_t>(conn.accounted_bytes));
        conn.accounted_bytes = now_bytes;
    }

    void close_conn(std::uint64_t id) {
        const auto it = conns.find(id);
        if (it == conns.end()) {
            return;
        }
        Connection& conn = *it->second;
        (void)::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
        ::close(conn.fd);
        metrics().open_connections.add(-1);
        metrics().buffered_bytes.add(
            -static_cast<std::int64_t>(conn.accounted_bytes));
        server.open_.fetch_sub(1);
        conns.erase(it);
    }

    /// Sets the connection's epoll interest, with one epoll_ctl when it
    /// changes.
    void set_events(Connection& conn, bool in, bool out) {
        if (conn.reading == in && conn.want_write == out) {
            return;
        }
        conn.reading = in;
        conn.want_write = out;
        epoll_event event{};
        event.events = (in ? EPOLLIN : 0U) | (out ? EPOLLOUT : 0U);
        event.data.u64 = conn.id;
        (void)::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &event);
    }

    void accept_ready() {
        for (;;) {
            const int fd = ::accept4(listen_fd, nullptr, nullptr,
                                     SOCK_NONBLOCK | SOCK_CLOEXEC);
            if (fd < 0) {
                if (errno == EINTR) {
                    continue;
                }
                break;  // EAGAIN, or the listener went away
            }
            // Admission control against the *global* budget: reserve a
            // slot with one fetch_add (every reactor races on the same
            // atomic, so the pool as a whole never exceeds
            // max_connections), undo it on any failure below.
            if (server.open_.fetch_add(1) >= config.max_connections) {
                // One typed line, then the door.  The socket is fresh,
                // so the non-blocking send of a short line succeeds (or
                // the peer is already gone).
                server.open_.fetch_sub(1);
                metrics().rejected.add();
                const std::string reply =
                    Response::make_error(ErrorCode::kBusy).encode() + "\n";
                (void)::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
                ::close(fd);
                continue;
            }
            static auto& accept_fault = fault::point("serve.accept");
            if (accept_fault.fire()) {
                // Simulated accept failure: the peer sees a raw close
                // (as if the listener's backlog dropped it) and must
                // reconnect.
                server.open_.fetch_sub(1);
                ::close(fd);
                continue;
            }
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

            auto conn = std::make_unique<Connection>();
            conn->fd = fd;
            conn->id = next_id++;
            conn->last_active = now;
            if (!watch(fd, conn->id)) {
                server.open_.fetch_sub(1);
                ::close(fd);
                continue;
            }
            metrics().accepted.add();
            metrics().open_connections.add(1);
            server.accepted_.fetch_add(1);
            conns.emplace(conn->id, std::move(conn));
        }
    }

    /// Appends one reply line to the write buffer; see end_reply().
    void queue_reply(Connection& conn, std::string_view text) {
        conn.outbuf += text;
        end_reply(conn);
    }

    /// Ends the reply line just appended to the write buffer, records
    /// its queue-to-reply latency, from the read that brought its request
    /// in, and stamps the connection with that clock read: after a
    /// compute on the loop, the wakeup's `now` may be stale.
    void end_reply(Connection& conn) {
        conn.outbuf += '\n';
        const Clock::time_point replied = Clock::now();
        metrics().queue_to_reply_seconds.record(
            std::chrono::duration<double>(replied - conn.read_at).count());
        conn.last_active = replied;
    }

    /// Answers one request line on the loop thread (PING, QUIT, STATS,
    /// HEALTH, MODELS, PARTITION, decode errors) or runs it through
    /// handle_request() on the engine pool (FEEDBACK, LOAD), which leaves
    /// the connection in flight until the completion returns.
    void handle_line_on(Connection& conn, std::string_view line) {
        Request request;
        try {
            request = Request::decode(line);
        } catch (...) {
            // Decode failures are the client's malformed line.
            queue_reply(conn, current_error(ErrorCode::kBadRequest).encode());
            return;
        }
        if (request.kind == Request::Kind::kPartition) {
            // Hit or miss, the plan's reply goes straight into the write
            // buffer: a typical compute costs less than a pool round trip.
            const std::size_t mark = conn.outbuf.size();
            try {
                append_partition_line(conn.outbuf, request.partition,
                                      engine.execute(request.partition));
            } catch (...) {
                // The ERR line handle_request() writes for it.
                conn.outbuf.resize(mark);
                conn.outbuf += current_error(ErrorCode::kInternal).encode();
            }
            end_reply(conn);
            return;
        }
        if (request.kind != Request::Kind::kFeedback &&
            request.kind != Request::Kind::kLoad) {
            if (request.kind == Request::Kind::kQuit) {
                conn.closing = true;  // drop any pipelined input after QUIT
            }
            queue_reply(conn, handle_request(engine, request));
            return;
        }
        // FEEDBACK (a republish appends to the store) and LOAD (a file
        // read) run on the pool.  The connection takes no further line
        // until the completion returns through the eventfd mailbox.
        conn.in_flight = true;
        engine.post([&engine = engine, queue = completions,
                     conn_id = conn.id, request = std::move(request)]() {
            std::string text;
            try {
                text = handle_request(engine, request);
            } catch (...) {
                text = current_error(ErrorCode::kInternal).encode();
            }
            queue->push(Completion{conn_id, std::move(text)});
        });
    }

    /// Takes the connection's complete lines in order while it takes
    /// input, through a head offset with one compaction per pass.
    /// `held` marks the first line as held while an earlier reply of the
    /// connection was pending.
    void take_lines(Connection& conn, bool held) {
        std::size_t head = 0;
        while (conn.takes_input()) {
            const std::size_t newline =
                conn.inbuf.find('\n', head + conn.scanned);
            const std::size_t end =
                newline == std::string::npos ? conn.inbuf.size() : newline;
            if (end - head > kMaxLineBytes) {
                queue_reply(conn,
                            Response::make_error(ErrorCode::kBadRequest,
                                                 "request line too long")
                                .encode());
                conn.closing = true;
                break;
            }
            if (newline == std::string::npos) {
                conn.scanned = end - head;
                break;
            }
            conn.scanned = 0;
            // A view into inbuf: nothing below touches inbuf, and decode
            // copies what the request keeps.
            std::string_view line(conn.inbuf.data() + head, end - head);
            head = newline + 1;
            if (!line.empty() && line.back() == '\r') {
                line.remove_suffix(1);
            }
            if (line.empty()) {
                continue;
            }
            if (held) {
                metrics().pipelined.add();
            }
            held = true;
            handle_line_on(conn, line);
        }
        conn.inbuf.erase(0, head);
    }

    /// Takes lines and writes their replies until a request is in
    /// flight, output stays blocked at kMaxLineBytes, or no complete line
    /// remains, so the connection reads only once it holds none.  `held`:
    /// a completion or drained output started the pass.  Returns false
    /// when the connection closed.
    bool pump(Connection& conn, bool held) {
        do {
            take_lines(conn, held);
            if (!try_write(conn)) {
                return false;
            }
            held = true;
        } while (conn.takes_input() &&
                 conn.inbuf.find('\n', conn.scanned) != std::string::npos);
        return true;
    }

    /// Non-blocking write of the unsent output; closes a closing
    /// connection once nothing is pending, else re-arms input when it may
    /// read and output while bytes remain.  A hard send failure closes
    /// the connection and is counted — never silently swallowed.
    bool try_write(Connection& conn) {
        if (!conn.outbuf.empty()) {
            static auto& send_fault = fault::point("serve.send");
            if (send_fault.fire()) {
                // Simulated hard send failure, same path as EPIPE below:
                // counted, never silently swallowed.  The peer sees a
                // mid-stream close, i.e. a truncated reply.
                metrics().send_failures.add();
                close_conn(conn.id);
                return false;
            }
        }
        std::size_t sent = 0;
        while (sent < conn.outbuf.size()) {
            const ssize_t n =
                ::send(conn.fd, conn.outbuf.data() + sent,
                       conn.outbuf.size() - sent, MSG_NOSIGNAL);
            if (n >= 0) {
                sent += static_cast<std::size_t>(n);
                continue;
            }
            if (errno == EINTR) {
                continue;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                break;
            }
            metrics().send_failures.add();
            close_conn(conn.id);
            return false;
        }
        conn.outbuf.erase(0, sent);
        if (conn.closing && !conn.in_flight && conn.outbuf.empty()) {
            close_conn(conn.id);
            return false;
        }
        set_events(conn, conn.reading || conn.takes_input(),
                   !conn.outbuf.empty());
        update_buffered(conn);
        return true;
    }

    bool on_readable(Connection& conn) {
        if (!conn.takes_input()) {
            // Input stays in the socket, so TCP flow control holds the
            // peer back; unwatch it until pump() resumes, or epoll spins.
            set_events(conn, false, conn.want_write);
            return true;
        }
        static auto& recv_fault = fault::point("serve.recv");
        if (recv_fault.fire()) {
            // Simulated recv failure (ECONNRESET): drop the connection
            // with whatever was buffered, exactly like the error path
            // below.
            close_conn(conn.id);
            return false;
        }
        char chunk[16384];  // one recv per readable event
        ssize_t n = 0;
        do {
            n = ::recv(conn.fd, chunk, sizeof chunk, 0);
        } while (n < 0 && errno == EINTR);
        if (n > 0) {
            conn.inbuf.append(chunk, static_cast<std::size_t>(n));
            conn.read_at = Clock::now();
            conn.last_active = conn.read_at;
            return pump(conn, false);
        }
        if (n == 0) {
            // pump() left no complete line behind before this read:
            // answer what is pending, then hang up.
            conn.closing = true;
            return try_write(conn);
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            return true;
        }
        close_conn(conn.id);
        return false;
    }

    void handle_completions() {
        for (Completion& completion : completions->drain()) {
            const auto it = conns.find(completion.conn_id);
            if (it == conns.end()) {
                continue;  // connection closed while computing
            }
            Connection& conn = *it->second;
            conn.in_flight = false;
            queue_reply(conn, completion.text);
            (void)pump(conn, true);
        }
    }

    /// At most once per tick, closes every connection with nothing in
    /// flight whose last read or queued reply is at least `idle` old.
    void expire_idle() {
        if (config.idle_timeout <= 0.0 || now < next_sweep) {
            return;
        }
        next_sweep = now + sweep_tick;
        for (auto it = conns.begin(); it != conns.end();) {
            const Connection& conn = *(it++)->second;  // before close_conn
            if (!conn.in_flight && now - conn.last_active >= idle) {
                metrics().idle_timeouts.add();
                close_conn(conn.id);
            }
        }
    }

    void run() {
        now = Clock::now();
        next_sweep = now + sweep_tick;
        std::vector<epoll_event> events(128);
        bool draining = false;
        Clock::time_point drain_until;
        for (;;) {
            if (!draining && stop_requested.load(std::memory_order_acquire)) {
                draining = true;
                (void)::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
                ::close(listen_fd);  // stop accepting
                listen_fd = -1;
                drain_until = now + kDrainDeadline;
                for (auto& [id, conn] : conns) {
                    conn->closing = true;
                }
            }
            if (draining) {
                const bool force = now >= drain_until;
                for (auto it = conns.begin(); it != conns.end();) {
                    const Connection& conn = *(it++)->second;
                    if (force || (!conn.in_flight && conn.outbuf.empty())) {
                        close_conn(conn.id);
                    }
                }
                if (conns.empty()) {
                    return;
                }
            }

            int timeout_ms = -1;  // the eventfd wakes us for stop()
            if (draining) {
                timeout_ms = static_cast<int>(std::clamp<std::int64_t>(
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        drain_until - now)
                        .count(),
                    0, 50));
            } else if (config.idle_timeout > 0.0 && !conns.empty()) {
                timeout_ms = static_cast<int>(sweep_tick.count());
            }

            const int n = ::epoll_wait(epoll_fd, events.data(),
                                       static_cast<int>(events.size()),
                                       timeout_ms);
            now = Clock::now();
            if (n < 0) {
                if (errno == EINTR) {
                    continue;
                }
                return;  // epoll fd gone; the destructor cleans up
            }
            for (int i = 0; i < n; ++i) {
                const std::uint64_t tag = events[i].data.u64;
                if (tag == kListenTag) {
                    if (!draining) {
                        accept_ready();
                    }
                    continue;
                }
                if (tag == kEventTag) {
                    handle_completions();
                    continue;
                }
                const auto it = conns.find(tag);
                if (it == conns.end()) {
                    continue;  // closed earlier in this batch
                }
                Connection& conn = *it->second;
                const std::uint32_t mask = events[i].events;
                if (mask & (EPOLLHUP | EPOLLERR)) {
                    close_conn(tag);
                    continue;
                }
                bool alive = true;
                if (mask & EPOLLIN) {
                    alive = on_readable(conn);
                }
                if (alive && (mask & EPOLLOUT)) {
                    (void)pump(conn, true);
                }
            }
            expire_idle();
        }
    }
};

// ---------------------------------------------------------------------------
// SocketServer
// ---------------------------------------------------------------------------

SocketServer::SocketServer(RequestEngine& engine, ServeConfig config)
    : engine_(engine), config_(std::move(config)) {}

SocketServer::SocketServer(RequestEngine& engine)
    : SocketServer(engine, ServeConfig{}) {}

SocketServer::~SocketServer() { stop(); }

void SocketServer::start() {
    FPM_CHECK(!running_.load() && reactors_.empty(), "server already started");
    const std::size_t pool =
        std::max<std::size_t>(config_.num_reactors, 1);
    port_ = config_.port;
    try {
        for (std::size_t i = 0; i < pool; ++i) {
            // Every listener of the pool binds the same port; the kernel
            // hashes incoming connections across them (SO_REUSEPORT).  A
            // single reactor skips the option so the default config
            // reproduces prior releases exactly.  port_ is config_.port
            // for the first listener (possibly 0 = ephemeral) and the
            // concrete bound port after it.
            reactors_.push_back(
                std::make_unique<Reactor>(*this, engine_, config_));
            port_ = reactors_.back()->open(port_, pool > 1);
        }
    } catch (...) {
        reactors_.clear();  // no thread runs yet; each closes its own fds
        port_ = 0;
        throw;
    }

    running_.store(true);
    // Process-wide like open_conns: every running server adds its pool.
    ReactorMetrics::get().reactors.add(static_cast<std::int64_t>(pool));
    threads_.reserve(pool);
    for (auto& reactor : reactors_) {
        threads_.emplace_back(
            [reactor = reactor.get()]() { reactor->run(); });
    }
}

void SocketServer::stop() {
    if (!running_.exchange(false)) {
        return;
    }
    for (auto& reactor : reactors_) {
        reactor->stop_requested.store(true, std::memory_order_release);
        reactor->completions->wake();
    }
    for (auto& thread : threads_) {
        if (thread.joinable()) {
            thread.join();
        }
    }
    threads_.clear();
    ReactorMetrics::get().reactors.add(
        -static_cast<std::int64_t>(reactors_.size()));
    reactors_.clear();
}

} // namespace fpm::serve
