/// \file line_conn.hpp
/// \brief The blocking socket transport shared by the service's peers.
///
/// ServeClient, the replica's Replicator and the primary's
/// ReplicationServer sessions all speak newline-terminated lines (and,
/// for replication, byte-counted frames) over one blocking TCP socket;
/// LineConn is that socket.  The epoll reactor in server.cpp is the
/// only other socket I/O in the tree.
///
/// Every read is bounded by its caller: read_line() never asks the
/// socket for more of a line than `max_bytes` + 1 bytes and fails as
/// soon as that many arrive without a newline; read_exact() refuses a
/// count above its bound before reading a byte.  A broken or hostile
/// peer cannot make the buffer grow past the bound.  Every socket
/// failure is a TransportError whose kind says what happened.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "fpm/common/error.hpp"

namespace fpm::serve {

/// A transport failure, typed by what actually happened on the socket.
/// Derives fpm::Error, so callers that only care that the round trip
/// failed keep working unchanged.
class TransportError : public Error {
public:
    enum class Kind {
        kConnect,     ///< could not establish the connection
        kTimeout,     ///< connect/send/recv deadline expired
        kPeerClosed,  ///< clean EOF between messages (no partial data)
        kTruncated,   ///< EOF inside a line or a frame
        kSend,        ///< hard send failure (EPIPE, ECONNRESET, ...)
        kRecv,        ///< hard recv failure (ECONNRESET, ...)
        kTooLong,     ///< a line or a frame larger than its bound
    };

    TransportError(Kind kind, const std::string& message)
        : Error(message), kind_(kind) {}

    [[nodiscard]] Kind kind() const noexcept { return kind_; }

private:
    Kind kind_;
};

/// One server address of an ordered failover list.
struct Endpoint {
    std::string host;
    std::uint16_t port = 0;

    [[nodiscard]] std::string to_string() const {
        return host + ":" + std::to_string(port);
    }
    friend bool operator==(const Endpoint& a, const Endpoint& b) {
        return a.host == b.host && a.port == b.port;
    }
};

/// A bound, listening TCP socket.
struct Listener {
    int fd = -1;
    std::uint16_t port = 0;  ///< the bound port (resolved when 0 was asked)
};

/// Binds `bind_address:port` with SO_REUSEADDR (plus SO_REUSEPORT when
/// `reuse_port`) and listens.  Port 0 binds an ephemeral port.  The
/// caller owns the returned fd.  Throws fpm::Error; nothing leaks.
[[nodiscard]] Listener listen_tcp(const std::string& bind_address,
                                  std::uint16_t port, int backlog,
                                  bool reuse_port);

/// See file comment.  Move-only owner of one socket fd.
class LineConn {
public:
    LineConn() = default;  ///< not connected

    /// Adopts a connected socket: sets TCP_NODELAY and, when
    /// `io_timeout` > 0, SO_RCVTIMEO/SO_SNDTIMEO deadlines of that many
    /// seconds.
    LineConn(int fd, double io_timeout);

    /// Connects to `target`.  The connect is polled against
    /// `connect_timeout` (<= 0: a plain blocking connect); the socket
    /// then gets the options above.  Throws TransportError (kConnect,
    /// kTimeout) on failure, fpm::Error on an unparseable host.
    LineConn(const Endpoint& target, double connect_timeout,
             double io_timeout);

    ~LineConn();
    LineConn(LineConn&& other) noexcept;
    LineConn& operator=(LineConn&& other) noexcept;
    LineConn(const LineConn&) = delete;
    LineConn& operator=(const LineConn&) = delete;

    [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }
    [[nodiscard]] int fd() const noexcept { return fd_; }

    /// Writes all of `data`.  Throws kTimeout or kSend.
    void send(std::string_view data);

    /// Reads one '\n'-terminated line (a trailing '\r' is stripped) of
    /// at most `max_bytes` before the newline.  Throws kTooLong once
    /// more bytes than that arrive without one, kPeerClosed on EOF with
    /// nothing buffered, kTruncated on EOF mid-line, kTimeout or kRecv.
    std::string read_line(std::size_t max_bytes);

    /// Reads exactly `count` bytes.  Throws kTooLong, before reading,
    /// when `count` exceeds `max_bytes`; kTruncated on EOF before
    /// `count` bytes arrived; kTimeout or kRecv.
    std::string read_exact(std::size_t count, std::size_t max_bytes);

    /// shutdown(SHUT_RDWR) without closing: wakes a thread blocked in
    /// recv/send on this socket and tells the peer now.  Safe to call
    /// from another thread; the fd stays valid until close().
    void shutdown() const noexcept;

    /// Closes the socket and drops buffered bytes.  Idempotent.
    void close() noexcept;

private:
    bool fill(std::size_t limit);

    int fd_ = -1;
    std::string buffer_;    ///< received, not yet consumed from head_
    std::size_t head_ = 0;  ///< first unconsumed byte of buffer_
};

} // namespace fpm::serve
