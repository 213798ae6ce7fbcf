/// \file client.hpp
/// \brief Blocking TCP client for the partition service.
///
/// One connection; request() does one line round trip, pipeline() writes
/// request lines in batches, reading each batch's responses before the
/// next — the client side of the reactor's request pipelining.  Typed
/// helpers (partition(), ping()) encode and decode through the shared
/// protocol structs, so client-side values match the server bit-for-bit.
///
/// The socket is a LineConn (line_conn.hpp).  Deadlines come from the
/// same ServeConfig the server consumes: connect() is polled against
/// ServeConfig::connect_timeout, and reads/writes carry
/// SO_RCVTIMEO/SO_SNDTIMEO deadlines of ServeConfig::recv_timeout — a
/// server that accepts but never replies produces a clear "timed out"
/// fpm::Error instead of hanging the caller forever.  A reply longer
/// than kMaxLineBytes is refused, not buffered.
///
/// Transport failures are typed (TransportError), distinguishing a
/// clean peer close from a reply truncated mid-line.  When
/// ServeConfig::max_retries > 0, call() (and the typed helpers built on
/// it) retries transport failures and `ERR busy` rejections with
/// exponential backoff + deterministic jitter, reconnecting and
/// re-sending the identical encoded line (the jitter stream is keyed on
/// the request fingerprint, so a given config + request replays the
/// same schedule).  FEEDBACK is the exception: the server may have
/// ingested a sample whose reply was lost, so after a transport error it
/// is not re-sent and the error reaches the caller; its `ERR busy`
/// (nothing ran) is still retried.  Raw request()/pipeline() never
/// retry — batch callers own their own policy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fpm/serve/line_conn.hpp"
#include "fpm/serve/protocol.hpp"
#include "fpm/serve/serve_config.hpp"

namespace fpm::serve {

/// Parses a comma-separated endpoint list: each entry is `host:port` or
/// a bare `port` (which gets `default_host`).  Throws fpm::Error on an
/// empty list, a malformed port or an empty host.
[[nodiscard]] std::vector<Endpoint>
parse_endpoint_list(const std::string& text, const std::string& default_host);

/// See file comment.
class ServeClient {
public:
    /// Connects immediately; throws fpm::Error on failure or when the
    /// connection does not complete within ServeConfig::connect_timeout.
    ServeClient(const std::string& host, std::uint16_t port,
                const ServeConfig& config);
    ServeClient(const std::string& host, std::uint16_t port);  ///< defaults

    /// Failover form: an ordered endpoint list.  The connection is
    /// opened against the first endpoint that accepts (in list order);
    /// afterwards every typed transport error — on connect or
    /// mid-request — advances to the next endpoint (wrapping) before
    /// the retry/reconnect, so a dead primary fails over to its replica
    /// without the caller doing anything.  Each advance counts in
    /// failovers() and the process-global `serve.client.failovers`
    /// counter.  Throws when the list is empty or no endpoint accepts.
    ServeClient(std::vector<Endpoint> endpoints, const ServeConfig& config);

    ServeClient(const ServeClient&) = delete;
    ServeClient& operator=(const ServeClient&) = delete;

    /// Sends one request line (without trailing newline) and returns the
    /// response line.  Throws fpm::Error on I/O failure, server hangup
    /// or a reply that does not arrive within ServeConfig::recv_timeout.
    /// A failed exchange drops the connection, so a late reply can never
    /// answer a later request; the next call reconnects to the active
    /// endpoint.  The failed request is not re-sent.
    std::string request(const std::string& line);

    /// Wall-clock duration of the most recent completed request() round
    /// trip, in seconds: a monotonic (steady_clock) start/stop taken
    /// immediately around the send and the reply read, so it includes
    /// kernel send/recv and server time but no client-side encode/decode.
    /// 0.0 until the first round trip completes; updated by request()
    /// and therefore by every typed helper built on it (call(),
    /// partition(), ...).  The load generator (fpm::loadgen) reads this
    /// instead of re-implementing timing around the socket.
    [[nodiscard]] double last_rtt_seconds() const noexcept {
        return last_rtt_seconds_;
    }

    /// Pipelines a batch of any size, 64 lines per write, reading each
    /// write's replies before the next; returns exactly lines.size()
    /// response lines (the server answers in request order).  Throws
    /// like request() and, like it, drops the connection on failure; the
    /// next call reconnects.
    std::vector<std::string> pipeline(const std::vector<std::string>& lines);

    /// Half-duplex halves of pipeline(), for callers that keep several
    /// connections in flight at once: send_lines() writes a batch
    /// without reading, read_replies() reads `count` response lines.
    /// Keep a batch's replies well under kMaxLineBytes: the server stops
    /// reading while that much is unsent.
    void send_lines(const std::vector<std::string>& lines);
    std::vector<std::string> read_replies(std::size_t count);

    /// Typed request round trip: encode, send, decode.  With
    /// ServeConfig::max_retries > 0 this is the retrying entry point
    /// (see file comment); QUIT is never retried, FEEDBACK only after
    /// `ERR busy`.
    Response call(const Request& request);

    /// PARTITION round trip with a decoded reply; throws ServiceError
    /// (carrying the server's ErrorCode) when the server answers ERR.
    PartitionReply partition(const PartitionRequest& req);

    /// FEEDBACK round trip: reports one served-execution measurement and
    /// returns what the server's adaptation layer did with it.  Throws
    /// ServiceError (carrying the server's ErrorCode) when the server
    /// answers ERR, and TransportError without re-sending when the
    /// exchange fails (the sample may or may not have been ingested).
    FeedbackReply report_feedback(const FeedbackSample& sample);

    /// PING round trip; throws fpm::Error unless the server answers a
    /// PONG carrying exactly kProtocolVersion — a mismatched revision is
    /// reported as a protocol version error, not silently tolerated.
    void ping();

    /// HEALTH round trip, fully typed: every known field parsed into
    /// ServerHealth (liveness, readiness, degradation counters, the
    /// store's recovered generation), unknown `key=value` pairs
    /// preserved in ServerHealth::extras.  Throws ServiceError when the
    /// server answers ERR.  Probes use this instead of grepping the raw
    /// reply line.
    ServerHealth health();

    /// STATS round trip, fully typed: every known field parsed into
    /// ServerStats, unknown `key=value` pairs preserved in
    /// ServerStats::extras.  Throws ServiceError when the server answers
    /// ERR, fpm::Error when a known field carries a malformed value.
    ServerStats stats();

    /// The endpoint the client is currently pointed at (it may not be
    /// connected right now).
    [[nodiscard]] const Endpoint& endpoint() const noexcept {
        return endpoints_[active_];
    }

    /// How many times this client advanced to another endpoint because
    /// of a typed transport error.  0 for a single-endpoint client.
    [[nodiscard]] std::uint64_t failovers() const noexcept {
        return failovers_;
    }

private:
    void open_connection();
    void advance_endpoint();
    /// Runs `io` on the connection, reconnecting first when it is
    /// closed and closing it when `io` throws.
    template <typename Exchange>
    auto exchange(Exchange&& io) -> decltype(io());

    LineConn conn_;
    double last_rtt_seconds_ = 0.0;
    std::vector<Endpoint> endpoints_;
    std::size_t active_ = 0;
    std::uint64_t failovers_ = 0;
    ServeConfig config_;
};

} // namespace fpm::serve
