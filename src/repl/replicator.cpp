#include "fpm/repl/replicator.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <charconv>
#include <chrono>

#include "fpm/common/error.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/obs/metrics.hpp"
#include "fpm/store/wal.hpp"

namespace fpm::repl {

namespace {

/// Process-global replica-side instruments.
struct ReplicaMetrics {
    obs::Counter& frames_applied;
    obs::Counter& snapshots_received;
    obs::Counter& reconnects;
    obs::Counter& heartbeats;
    obs::Gauge& lag_frames;
    obs::Histogram& apply_seconds;

    static const ReplicaMetrics& get() {
        static auto& registry = obs::MetricsRegistry::global();
        static const ReplicaMetrics metrics{
            registry.counter("repl.frames_applied"),
            registry.counter("repl.snapshots_received"),
            registry.counter("repl.reconnects"),
            registry.counter("repl.heartbeats"),
            registry.gauge("repl.lag_frames"),
            registry.histogram("repl.apply_seconds")};
        return metrics;
    }
};

/// Largest `bytes=` a REPL FRAME header may announce: one store frame
/// whose payload recovery would also accept.
constexpr std::size_t kMaxReplFrameBytes =
    store::kFrameHeaderBytes + store::kMaxFrameBytes;

/// Publishes the live socket for stop() to sever, and withdraws it
/// before the connection that owns it closes.
class FdHandoff {
public:
    FdHandoff(std::atomic<int>& slot, int fd) : slot_(slot) {
        slot_.store(fd, std::memory_order_release);
    }
    ~FdHandoff() { slot_.store(-1, std::memory_order_release); }
    FdHandoff(const FdHandoff&) = delete;
    FdHandoff& operator=(const FdHandoff&) = delete;

private:
    std::atomic<int>& slot_;
};

/// "key=value" extraction from a REPL control line; throws on absence.
std::string line_field(const std::string& line, const std::string& key) {
    const std::string needle = key + "=";
    std::size_t at = line.find(needle);
    FPM_CHECK(at != std::string::npos,
              "REPL line missing " + key + "=: " + line);
    at += needle.size();
    const std::size_t end = line.find(' ', at);
    return line.substr(at, end == std::string::npos ? std::string::npos
                                                    : end - at);
}

/// A `key=` count of a REPL control line: the whole value is decimal
/// digits, without a sign, that fit in 64 bits.
std::uint64_t parse_u64_field(const std::string& line,
                              const std::string& key) {
    const std::string text = line_field(line, key);
    const char* const end = text.data() + text.size();
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    FPM_CHECK(ec == std::errc() && ptr == end,
              "malformed " + key + "= in REPL line: " + line);
    return value;
}

} // namespace

Replicator::Replicator(serve::RequestEngine& engine,
                       store::ModelStore* local_store,
                       ReplicatorConfig config)
    : engine_(engine), local_store_(local_store),
      config_(std::move(config)) {
    // Everything already recovered locally counts as applied: a
    // restarted replica resumes from the generation its store recovered.
    applied_generation_.store(engine_.registry().next_generation() - 1,
                              std::memory_order_relaxed);
}

Replicator::~Replicator() { stop(); }

void Replicator::start() {
    if (started_) {
        return;
    }
    started_ = true;
    engine_.set_repl_source(config_.source.to_string());
    engine_.record_repl_applied(
        applied_generation_.load(std::memory_order_relaxed));
    thread_ = std::thread([this] { run(); });
}

void Replicator::stop() {
    if (stop_.exchange(true)) {
        if (thread_.joinable()) {
            thread_.join();
        }
        return;
    }
    {
        std::lock_guard lock(stop_mutex_);
        stop_cv_.notify_all();
    }
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd >= 0) {
        ::shutdown(fd, SHUT_RDWR);  // wake a blocked recv; run_once closes
    }
    if (thread_.joinable()) {
        thread_.join();
    }
}

void Replicator::backoff(int consecutive_failures) {
    double delay = config_.transport.backoff_base;
    for (int i = 1; i < consecutive_failures; ++i) {
        delay *= 2.0;
        if (delay >= config_.transport.backoff_max) {
            break;
        }
    }
    delay = std::min(delay, config_.transport.backoff_max);
    if (delay <= 0.0) {
        return;
    }
    std::unique_lock lock(stop_mutex_);
    stop_cv_.wait_for(lock, std::chrono::duration<double>(delay), [&] {
        return stop_.load(std::memory_order_relaxed);
    });
}

void Replicator::run() {
    int failures = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
        try {
            run_once();
        } catch (const std::exception&) {
            // Connect refusal, stream loss, apply failure, injected
            // repl.* fault: all reconverge through reconnect + resume.
        }
        // A session that completed its handshake proved the primary
        // reachable, so the back-off starts over; a severed stream
        // (primary restart, injected fault) then costs one backoff_base.
        if (connected_.exchange(false, std::memory_order_relaxed)) {
            failures = 0;
        }
        if (stop_.load(std::memory_order_relaxed)) {
            break;
        }
        reconnects_.fetch_add(1, std::memory_order_relaxed);
        ReplicaMetrics::get().reconnects.add(1);
        backoff(++failures);
    }
}

void Replicator::run_once() {
    serve::LineConn conn(config_.source, config_.transport.connect_timeout,
                         config_.transport.recv_timeout);
    const FdHandoff handoff(fd_, conn.fd());

    std::uint64_t applied = applied_generation_.load(std::memory_order_relaxed);
    conn.send("REPL HELLO " + std::to_string(applied) + "\n");
    const std::string greeting = conn.read_line(kMaxReplLineBytes);
    FPM_CHECK(greeting.rfind("OK REPL STREAM ", 0) == 0,
              "unexpected REPL handshake reply: " + greeting);

    // The highest committed generation the primary announced: lag is
    // reported against it after every frame, so a catch-up shows as
    // lag until the last frame lands.
    std::uint64_t committed = parse_u64_field(greeting, "committed");
    if (applied == 0 && committed > 0) {
        // Starting from nothing against a non-empty primary: the stream
        // opens with the whole registry, the only full-state transfer.
        snapshots_received_.fetch_add(1, std::memory_order_relaxed);
        ReplicaMetrics::get().snapshots_received.add(1);
    }
    const auto record_contact = [&] {
        applied = applied_generation_.load(std::memory_order_relaxed);
        committed = std::max(committed, applied);
        engine_.record_repl_contact(committed, applied);
        ReplicaMetrics::get().lag_frames.set(
            static_cast<std::int64_t>(committed - applied));
    };
    record_contact();
    connected_.store(true, std::memory_order_relaxed);

    while (!stop_.load(std::memory_order_relaxed)) {
        const std::string line = conn.read_line(kMaxReplLineBytes);
        if (line.rfind("REPL FRAME ", 0) == 0) {
            const std::uint64_t bytes = parse_u64_field(line, "bytes");
            apply_frame(conn.read_exact(bytes, kMaxReplFrameBytes));
        } else if (line.rfind("REPL PING ", 0) == 0) {
            committed = std::max(committed, parse_u64_field(line, "committed"));
            ReplicaMetrics::get().heartbeats.add(1);
        } else {
            throw Error("unexpected REPL stream line: " + line);
        }
        record_contact();
    }
}

void Replicator::apply_frame(const std::string& frame) {
    // The frame is a store WAL frame: it must be exactly one frame that
    // recovery would accept before the payload is trusted.
    const auto decoded = store::decode_frame(frame);
    FPM_CHECK(decoded && decoded->size == frame.size(),
              "repl stream: torn or corrupt replication frame");
    apply_record(store::decode_publish_record(decoded->payload, "repl stream"));
}

void Replicator::apply_record(const store::PublishRecord& record) {
    if (record.generation <=
        applied_generation_.load(std::memory_order_relaxed)) {
        return;  // already applied
    }

    static auto& apply_fault = fault::point("repl.apply");
    if (apply_fault.fire()) {
        throw serve::ServiceError(serve::ErrorCode::kStoreUnavailable,
                                  "injected fault: repl.apply");
    }

    const auto start = std::chrono::steady_clock::now();
    serve::ModelRegistry& registry = engine_.registry();
    const std::shared_ptr<const serve::ModelSet> old =
        registry.find(record.name);

    std::shared_ptr<const serve::ModelSet> installed;
    if (registry.next_generation() == record.generation) {
        // Steady state: put() reproduces the primary's generation and
        // fires the local store's write-ahead observer.
        installed = registry.put(record.name, record.models);
    } else {
        // A catch-up skips the generations that later records of the
        // same set superseded: restore() installs the explicit generation
        // verbatim (no observer), so the local store is fed directly.
        installed =
            registry.restore(record.name, record.models, record.generation);
        if (local_store_ != nullptr) {
            serve::ModelSet set;
            set.name = record.name;
            set.models = record.models;
            set.generation = record.generation;
            set.fingerprint = installed->fingerprint;
            local_store_->append(set);
        }
    }
    FPM_CHECK(installed->generation == record.generation,
              "replicated generation mismatch: installed " +
                  std::to_string(installed->generation) + ", primary " +
                  std::to_string(record.generation));
    FPM_CHECK(installed->fingerprint == record.fingerprint,
              "replicated fingerprint mismatch for " + record.name);

    if (old != nullptr) {
        // Same cache hygiene as an adapt republish: plans computed
        // against the superseded snapshot can never be served again.
        engine_.invalidate_model(old->fingerprint);
    }

    applied_generation_.store(record.generation,
                              std::memory_order_relaxed);
    frames_applied_.fetch_add(1, std::memory_order_relaxed);
    engine_.record_repl_applied(record.generation);
    ReplicaMetrics::get().frames_applied.add(1);
    ReplicaMetrics::get().apply_seconds.record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
}

} // namespace fpm::repl
