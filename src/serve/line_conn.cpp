#include "fpm/serve/line_conn.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

namespace fpm::serve {

namespace {

using Kind = TransportError::Kind;

/// One recv() reads at most this much.
constexpr std::size_t kChunkBytes = 4096;

/// Pending connections a listener queues (the listen(2) backlog).
constexpr int kListenBacklog = 64;

sockaddr_in parse_address(const std::string& host, std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    FPM_CHECK(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
              "invalid address: " + host);
    return addr;
}

timeval to_timeval(double seconds) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec =
        static_cast<suseconds_t>((seconds - std::floor(seconds)) * 1e6);
    return tv;
}

/// Connects with a deadline: the socket goes non-blocking, connect() is
/// polled for writability, and SO_ERROR reports the final outcome.  A
/// non-positive timeout falls back to a plain blocking connect().
void connect_with_timeout(int fd, const sockaddr_in& addr, double timeout,
                          const std::string& target) {
    const auto failed = [&](Kind kind, const std::string& why) {
        return TransportError(kind, "connect(" + target + "): " + why);
    };
    const auto* sa = reinterpret_cast<const sockaddr*>(&addr);
    if (timeout <= 0.0) {
        if (::connect(fd, sa, sizeof addr) != 0) {
            throw failed(Kind::kConnect, std::strerror(errno));
        }
        return;
    }

    const int flags = ::fcntl(fd, F_GETFL, 0);
    FPM_CHECK(flags >= 0, std::string("fcntl(): ") + std::strerror(errno));
    FPM_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
              std::string("fcntl(): ") + std::strerror(errno));

    if (::connect(fd, sa, sizeof addr) != 0) {
        if (errno != EINPROGRESS) {
            throw failed(Kind::kConnect, std::strerror(errno));
        }
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLOUT;
        const int timeout_ms = static_cast<int>(timeout * 1e3);
        int ready = 0;
        do {
            ready = ::poll(&pfd, 1, timeout_ms);
        } while (ready < 0 && errno == EINTR);
        FPM_CHECK(ready >= 0, std::string("poll(): ") + std::strerror(errno));
        if (ready == 0) {
            throw failed(Kind::kTimeout, "timed out");
        }
        int err = 0;
        socklen_t len = sizeof err;
        FPM_CHECK(::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) == 0,
                  std::string("getsockopt(): ") + std::strerror(errno));
        if (err != 0) {
            throw failed(Kind::kConnect, std::strerror(err));
        }
    }

    FPM_CHECK(::fcntl(fd, F_SETFL, flags) == 0,
              std::string("fcntl(): ") + std::strerror(errno));
}

/// A socket connected to `target`; closed again if the connect fails.
int connected_socket(const Endpoint& target, double connect_timeout) {
    const sockaddr_in addr = parse_address(target.host, target.port);
    // CLOEXEC so tools that fork (e.g. to spawn a pager) cannot leak the
    // connection into the child.
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    FPM_CHECK(fd >= 0, std::string("socket(): ") + std::strerror(errno));
    try {
        connect_with_timeout(fd, addr, connect_timeout, target.to_string());
    } catch (...) {
        ::close(fd);
        throw;
    }
    return fd;
}

} // namespace

Listener listen_tcp(const std::string& bind_address, std::uint16_t port,
                    bool reuse_port) {
    const sockaddr_in addr = parse_address(bind_address, port);
    Listener listener;
    listener.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    FPM_CHECK(listener.fd >= 0,
              std::string("socket(): ") + std::strerror(errno));
    try {
        const int one = 1;
        ::setsockopt(listener.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        if (reuse_port) {
            FPM_CHECK(::setsockopt(listener.fd, SOL_SOCKET, SO_REUSEPORT,
                                   &one, sizeof one) == 0,
                      std::string("setsockopt(SO_REUSEPORT): ") +
                          std::strerror(errno));
        }
        FPM_CHECK(::bind(listener.fd,
                         reinterpret_cast<const sockaddr*>(&addr),
                         sizeof addr) == 0,
                  "bind(" + bind_address + ":" + std::to_string(port) +
                      "): " + std::strerror(errno));
        FPM_CHECK(::listen(listener.fd, kListenBacklog) == 0,
                  std::string("listen(): ") + std::strerror(errno));

        sockaddr_in bound{};
        socklen_t len = sizeof bound;
        FPM_CHECK(::getsockname(listener.fd,
                                reinterpret_cast<sockaddr*>(&bound),
                                &len) == 0,
                  std::string("getsockname(): ") + std::strerror(errno));
        listener.port = ntohs(bound.sin_port);
    } catch (...) {
        ::close(listener.fd);
        throw;
    }
    return listener;
}

LineConn::LineConn(int fd, double io_timeout) : fd_(fd) {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (io_timeout > 0.0) {
        const timeval tv = to_timeval(io_timeout);
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    }
}

LineConn::LineConn(const Endpoint& target, double connect_timeout,
                   double io_timeout)
    : LineConn(connected_socket(target, connect_timeout), io_timeout) {}

LineConn::~LineConn() { close(); }

LineConn::LineConn(LineConn&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buffer_(std::move(other.buffer_)),
      head_(std::exchange(other.head_, 0)) {}

LineConn& LineConn::operator=(LineConn&& other) noexcept {
    if (this != &other) {
        close();
        fd_ = std::exchange(other.fd_, -1);
        buffer_ = std::move(other.buffer_);
        head_ = std::exchange(other.head_, 0);
    }
    return *this;
}

void LineConn::close() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buffer_.clear();
    head_ = 0;
}

void LineConn::shutdown() const noexcept {
    if (fd_ >= 0) {
        ::shutdown(fd_, SHUT_RDWR);
    }
}

void LineConn::send(std::string_view data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                                 MSG_NOSIGNAL);
        if (n >= 0) {
            sent += static_cast<std::size_t>(n);
        } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
            throw TransportError(Kind::kTimeout, "send(): timed out");
        } else if (errno != EINTR) {
            throw TransportError(Kind::kSend, std::string("send(): ") +
                                                  std::strerror(errno));
        }
    }
}

/// Appends what one recv() returns, at most `limit` bytes (consumed
/// bytes are compacted away first); false on EOF.
bool LineConn::fill(std::size_t limit) {
    if (head_ > 0) {
        buffer_.erase(0, head_);
        head_ = 0;
    }
    char chunk[kChunkBytes];
    for (;;) {
        const ssize_t n =
            ::recv(fd_, chunk, std::min(sizeof chunk, limit), 0);
        if (n > 0) {
            buffer_.append(chunk, static_cast<std::size_t>(n));
            return true;
        }
        if (n == 0) {
            return false;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            throw TransportError(Kind::kTimeout, "recv(): timed out");
        }
        if (errno != EINTR) {
            throw TransportError(Kind::kRecv, std::string("recv(): ") +
                                                  std::strerror(errno));
        }
    }
}

std::string LineConn::read_line(std::size_t max_bytes) {
    std::size_t scanned = 0;  // pending bytes already known newline-free
    for (;;) {
        const std::size_t newline = buffer_.find('\n', head_ + scanned);
        if (newline != std::string::npos) {
            std::size_t end = newline;
            if (end > head_ && buffer_[end - 1] == '\r') {
                --end;
            }
            std::string line = buffer_.substr(head_, end - head_);
            head_ = newline + 1;
            return line;
        }
        const std::size_t pending = buffer_.size() - head_;
        if (pending > max_bytes) {
            throw TransportError(Kind::kTooLong,
                                 "line exceeds " + std::to_string(max_bytes) +
                                     " bytes without a newline");
        }
        scanned = pending;
        if (!fill(max_bytes + 1 - pending)) {
            if (pending == 0) {
                throw TransportError(Kind::kPeerClosed,
                                     "peer closed the connection");
            }
            throw TransportError(
                Kind::kTruncated,
                "peer closed the connection mid-reply (" +
                    std::to_string(pending) + " bytes without a newline)");
        }
    }
}

std::string LineConn::read_exact(std::size_t count, std::size_t max_bytes) {
    if (count > max_bytes) {
        throw TransportError(Kind::kTooLong,
                             "frame of " + std::to_string(count) +
                                 " bytes exceeds the " +
                                 std::to_string(max_bytes) + "-byte bound");
    }
    while (buffer_.size() - head_ < count) {
        if (!fill(kChunkBytes)) {
            throw TransportError(
                Kind::kTruncated,
                "peer closed the connection mid-frame (" +
                    std::to_string(buffer_.size() - head_) + " of " +
                    std::to_string(count) + " bytes)");
        }
    }
    std::string data = buffer_.substr(head_, count);
    head_ += count;
    return data;
}

} // namespace fpm::serve
