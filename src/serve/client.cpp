#include "fpm/serve/client.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "fpm/common/error.hpp"
#include "fpm/common/rng.hpp"
#include "fpm/obs/metrics.hpp"

namespace fpm::serve {

namespace {

/// Width of the uniform jitter on each retry sleep (+-25 %): clients that
/// failed together do not retry in lockstep.
constexpr double kBackoffJitter = 0.5;

/// pipeline() writes at most this many lines before reading their
/// replies: the server stops reading while kMaxLineBytes of replies are
/// unsent, so writing a whole large batch first could block in send().
constexpr std::size_t kPipelineWindow = 64;

/// Process-global client-side counters (mirroring the engine's style).
struct ClientMetrics {
    obs::Counter& retries;
    obs::Counter& reconnects;
    obs::Counter& failovers;

    static const ClientMetrics& get() {
        static auto& registry = obs::MetricsRegistry::global();
        static const ClientMetrics metrics{
            registry.counter("serve.client.retries"),
            registry.counter("serve.client.reconnects"),
            registry.counter("serve.client.failovers")};
        return metrics;
    }
};

} // namespace

std::vector<Endpoint> parse_endpoint_list(const std::string& text,
                                          const std::string& default_host) {
    std::vector<Endpoint> endpoints;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::string entry =
            text.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        FPM_CHECK(!entry.empty(), "empty endpoint in list: " + text);
        Endpoint endpoint;
        const std::size_t colon = entry.rfind(':');
        std::string port_text;
        if (colon == std::string::npos) {
            endpoint.host = default_host;
            port_text = entry;
        } else {
            endpoint.host = entry.substr(0, colon);
            port_text = entry.substr(colon + 1);
            FPM_CHECK(!endpoint.host.empty(),
                      "empty host in endpoint: " + entry);
        }
        errno = 0;
        char* end = nullptr;
        const long port = std::strtol(port_text.c_str(), &end, 10);
        FPM_CHECK(end != port_text.c_str() && *end == '\0' && errno == 0 &&
                      port > 0 && port <= 65535,
                  "malformed port in endpoint: " + entry);
        endpoint.port = static_cast<std::uint16_t>(port);
        endpoints.push_back(std::move(endpoint));
        if (comma == std::string::npos) {
            break;
        }
        start = comma + 1;
    }
    FPM_CHECK(!endpoints.empty(), "empty endpoint list");
    return endpoints;
}

ServeClient::ServeClient(const std::string& host, std::uint16_t port,
                         const ServeConfig& config)
    : ServeClient(std::vector<Endpoint>{Endpoint{host, port}}, config) {}

ServeClient::ServeClient(const std::string& host, std::uint16_t port)
    : ServeClient(host, port, ServeConfig{}) {}

ServeClient::ServeClient(std::vector<Endpoint> endpoints,
                         const ServeConfig& config)
    : endpoints_(std::move(endpoints)), config_(config) {
    FPM_CHECK(!endpoints_.empty(), "endpoint list is empty");
    open_connection();
}

void ServeClient::advance_endpoint() {
    if (endpoints_.size() < 2) {
        return;
    }
    active_ = (active_ + 1) % endpoints_.size();
    ++failovers_;
    ClientMetrics::get().failovers.add();
}

void ServeClient::open_connection() {
    // With a failover list every endpoint gets one attempt, starting at
    // the active one; a connect failure advances to the next.  The last
    // failure propagates when the whole list is down.
    for (std::size_t attempt = 0;; ++attempt) {
        try {
            conn_ = LineConn(endpoints_[active_], config_.connect_timeout,
                             config_.recv_timeout);
            return;
        } catch (const TransportError&) {
            if (attempt + 1 >= endpoints_.size()) {
                throw;
            }
            advance_endpoint();
        }
    }
}

template <typename Exchange>
auto ServeClient::exchange(Exchange&& io) -> decltype(io()) {
    if (!conn_.is_open()) {
        ClientMetrics::get().reconnects.add();
        open_connection();
    }
    try {
        return io();
    } catch (...) {
        // A failed exchange leaves the stream in an unknown state: a late
        // reply would answer the next request.  Drop it.
        conn_.close();
        throw;
    }
}

std::string ServeClient::request(const std::string& line) {
    return exchange([&] {
        const auto start = std::chrono::steady_clock::now();
        conn_.send(line + "\n");
        std::string reply = conn_.read_line(kMaxLineBytes);
        last_rtt_seconds_ = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
        return reply;
    });
}

void ServeClient::send_lines(const std::vector<std::string>& lines) {
    exchange([&] {
        std::string framed;
        for (const std::string& line : lines) {
            framed += line;
            framed += '\n';
        }
        conn_.send(framed);
    });
}

std::vector<std::string> ServeClient::read_replies(std::size_t count) {
    return exchange([&] {
        std::vector<std::string> replies;
        replies.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            replies.push_back(conn_.read_line(kMaxLineBytes));
        }
        return replies;
    });
}

std::vector<std::string>
ServeClient::pipeline(const std::vector<std::string>& lines) {
    std::vector<std::string> replies;
    for (std::size_t i = 0; i < lines.size(); i += kPipelineWindow) {
        const auto first = lines.begin() + static_cast<std::ptrdiff_t>(i);
        const auto last = first + static_cast<std::ptrdiff_t>(std::min(
                                      kPipelineWindow, lines.size() - i));
        send_lines({first, last});
        const auto chunk = read_replies(static_cast<std::size_t>(last - first));
        replies.insert(replies.end(), chunk.begin(), chunk.end());
    }
    return replies;
}

Response ServeClient::call(const Request& req) {
    if (config_.max_retries <= 0 || req.kind == Request::Kind::kQuit) {
        return Response::decode(request(req.encode()));
    }

    // Retry mode: the encoded line is computed once and re-sent verbatim
    // on every attempt, and the jitter stream is seeded from the request
    // fingerprint so a given config + request replays the same backoff
    // schedule.
    const std::string line = req.encode();
    Rng jitter(config_.retry_seed ^ request_fingerprint(req));
    const auto backoff = [&](int attempt) {
        double delay = config_.backoff_base;
        for (int i = 1; i < attempt; ++i) {
            delay *= 2.0;
        }
        delay = std::min(delay, config_.backoff_max);
        delay *= 1.0 + kBackoffJitter * (jitter.uniform() - 0.5);
        if (delay > 0.0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(delay));
        }
    };

    int attempt = 0;
    for (;;) {
        try {
            const Response response = Response::decode(request(line));
            if (response.kind == Response::Kind::kError &&
                response.error_code == ErrorCode::kBusy &&
                attempt < config_.max_retries) {
                // Admission rejection: the server also closed the
                // connection, so start fresh after the backoff.
                conn_.close();
                ++attempt;
                ClientMetrics::get().retries.add();
                backoff(attempt);
                continue;
            }
            return response;
        } catch (const TransportError&) {
            // request() already dropped the connection.  A FEEDBACK the
            // server may already have ingested is not re-sent: a second
            // copy would count the sample twice.  With a failover list,
            // the next attempt starts against the next endpoint — the
            // active one just proved unreachable or unresponsive.
            if (attempt >= config_.max_retries ||
                req.kind == Request::Kind::kFeedback) {
                throw;
            }
            advance_endpoint();
            ++attempt;
            ClientMetrics::get().retries.add();
            backoff(attempt);
        }
    }
}

PartitionReply ServeClient::partition(const PartitionRequest& req) {
    Request wire;
    wire.kind = Request::Kind::kPartition;
    wire.partition = req;
    return expect_reply(call(wire), Response::Kind::kPartition).partition;
}

FeedbackReply ServeClient::report_feedback(const FeedbackSample& sample) {
    Request wire;
    wire.kind = Request::Kind::kFeedback;
    wire.feedback = sample;
    return expect_reply(call(wire), Response::Kind::kFeedback).feedback;
}

void ServeClient::ping() {
    const std::string raw = request(Request{}.encode());  // kPing default
    const Response response = Response::decode(raw);
    if (response.kind == Response::Kind::kPong) {
        if (response.version != kProtocolVersion) {
            throw Error("protocol version mismatch: client speaks v" +
                        std::to_string(kProtocolVersion) +
                        ", server answered \"" + raw + "\"");
        }
        return;
    }
    throw Error("unexpected PING reply: " + raw);
}

ServerHealth ServeClient::health() {
    Request wire;
    wire.kind = Request::Kind::kHealth;
    return ServerHealth::from_fields(
        expect_reply(call(wire), Response::Kind::kHealth).fields);
}

ServerStats ServeClient::stats() {
    Request wire;
    wire.kind = Request::Kind::kStats;
    return ServerStats::from_fields(
        expect_reply(call(wire), Response::Kind::kStats).fields);
}

} // namespace fpm::serve
