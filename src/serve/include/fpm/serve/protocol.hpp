/// \file protocol.hpp
/// \brief Typed messages of the partition-service wire protocol.
///
/// The wire format stays line-oriented text — one request line, one
/// response line, fields separated by one space on send and by any run
/// of wire whitespace on receipt, values never containing any — but
/// nothing outside this module splices or splits those strings.
/// Every message is a typed struct with `encode()`/`decode()`, and the
/// reactor, ServeClient, the tools and the tests all speak structs:
///
///     PING                                    -> OK PONG v<version>
///     LOAD <name> <path>                      -> OK LOADED ...
///     PARTITION <model> <n> <algo> [nolayout] -> OK PARTITION ...
///     FEEDBACK <model> <dev> <x> <seconds>    -> OK FEEDBACK ...
///     MODELS                                  -> OK MODELS ...
///     STATS                                   -> OK STATS ...
///     HEALTH                                  -> OK HEALTH ...
///     QUIT                                    -> OK BYE
///
/// Failures are `ERR <code> [<message>]` since v5: the first token is a
/// stable machine-readable ErrorCode token (see error.hpp) and the rest
/// is the human diagnosis, built by current_error() from the failure's
/// message alone.  Doubles travel as round-trip-exact decimal: %.17g, 17
/// significant digits (not the shortest form: 0.1 prints as
/// 0.10000000000000001), so a partition reply decoded by the client
/// compares bit-for-bit with the direct library call.  kProtocolVersion
/// is the single revision constant: PING carries it, ServeClient::ping()
/// enforces it, and nothing else restates it.
///
/// The normative wire-format specification (framing, field grammars,
/// the ERR taxonomy, the even-split fallback) lives in docs/protocol.md;
/// this header and that document must change together.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fpm/common/split.hpp"
#include "fpm/serve/error.hpp"
#include "fpm/serve/request_engine.hpp"

namespace fpm::serve {

/// Wire protocol revision.  v7 drops single-flight dedup: its flag
/// leaves PARTITION replies (13 tokens) and its counter leaves STATS.
/// v6 adds replication: the REPL verbs spoken
/// on the replication listener (HELLO handshake, framed FRAME/SNAP
/// records, PING heartbeats — see docs/replication.md), the
/// `read_only` ERR token replicas answer to write verbs, and the
/// replication fields (role, repl_lag_frames, repl_lag_seconds,
/// repl_source, repl_applied_generation) in STATS and HEALTH.  v5 types
/// failures (`ERR <code> [<message>]` with the stable ErrorCode
/// tokens), extends HEALTH to the extensible key=value ServerHealth
/// reply (recovered_generation), and adds the durable-store STATS
/// fields (store_*, recovered_generation).  v4 added the FEEDBACK verb
/// (online model refinement) and the adapt_* STATS fields; v3
/// introduced typed messages, the reactor's STATS fields (connection
/// gauges, queue-to-reply quantiles), the HEALTH request and the
/// PARTITION `degraded=` flag.  Clients must refuse to talk to a
/// server announcing a different revision (ServeClient::ping enforces
/// this).
inline constexpr int kProtocolVersion = 7;

/// Longest line, in bytes before the newline, either direction carries:
/// the reactor answers a longer request line `ERR bad_request` and
/// closes; ServeClient fails a longer reply with TransportError
/// kTooLong.
inline constexpr std::size_t kMaxLineBytes = 1 << 20;

/// Wire whitespace: space, \t, \n, \v, \f and \r, the bytes the C
/// locale's isspace() matches (fpm::is_space).  Senders separate tokens
/// with one space; decoders split on any run of these, and no token (a
/// model-set name included) may hold one.
[[nodiscard]] constexpr bool is_wire_space(char c) noexcept {
    return is_space(c);
}

/// A request message.  decode() parses a wire line (throws fpm::Error
/// with a client-safe message on unknown verbs, arity errors or
/// malformed numbers); encode() renders the line the client sends.
struct Request {
    enum class Kind { kPing, kLoad, kPartition, kFeedback, kModels, kStats,
                      kHealth, kQuit };

    Kind kind = Kind::kPing;
    PartitionRequest partition;  ///< kPartition
    FeedbackSample feedback;     ///< kFeedback
    std::string name;            ///< kLoad: registry name
    std::string path;            ///< kLoad: model CSV path

    [[nodiscard]] std::string encode() const;
    [[nodiscard]] static Request decode(std::string_view line);
};

/// Payload of an `OK PARTITION` response.
struct PartitionReply {
    std::string model;
    std::uint64_t generation = 0;
    std::int64_t n = 0;
    Algorithm algorithm = Algorithm::kFpm;
    bool cached = false;
    /// Served from the constant-performance fallback (an even split of
    /// the current model set) because the compute failed.
    bool degraded = false;
    double balanced_time = 0.0;
    double makespan = 0.0;
    std::int64_t comm_cost = 0;
    std::vector<std::int64_t> blocks;
    std::vector<part::Rect> rects;  ///< empty when the layout was not requested
};

/// Payload of an `OK LOADED` response.
struct LoadedReply {
    std::string name;
    std::uint64_t models = 0;
    std::uint64_t generation = 0;
    std::uint64_t fingerprint = 0;
};

/// One `key=value` field of an `OK STATS`/`OK HEALTH` response, in wire
/// order.  The value is pre-rendered (integers, or %.17g doubles) so the
/// field list is closed under encode()/decode() round trips.
struct StatField {
    std::string name;
    std::string value;
};

/// Payload of an `OK HEALTH` response: liveness (the process answered),
/// readiness (at least one model set is loaded), the degradation
/// counters an operator watches during fault drills, the generation the
/// durable store recovered at startup, and the replication status of
/// the answering engine.  Like STATS, the reply is an open key=value
/// list: from_fields() is the typed view (ServeClient::health() returns
/// it), and unknown fields land in `extras`, so probes keep working
/// against newer servers.
struct ServerHealth {
    bool live = true;
    bool ready = false;
    std::uint64_t models = 0;           ///< registry size
    std::uint64_t faults_injected = 0;  ///< fault::injected_total()
    std::uint64_t degraded = 0;         ///< even-split fallbacks served
    /// Highest registry generation restored from the durable store at
    /// startup; 0 when no store is configured (or it was empty).
    std::uint64_t recovered_generation = 0;

    // -- replication (v6; defaults when replication is not configured) --
    std::string role = "primary";        ///< "primary" or "replica"
    std::uint64_t repl_lag_frames = 0;   ///< committed minus applied gen
    double repl_lag_seconds = 0.0;       ///< staleness vs the source
    std::string repl_source = "-";       ///< replica: upstream host:port
    std::uint64_t repl_applied_generation = 0;  ///< last applied gen

    /// Unknown `key=value` pairs, verbatim (forward compat).
    std::map<std::string, std::string> extras;

    /// Parses a decoded HEALTH field vector.  Throws fpm::Error when a
    /// *known* field carries a malformed value; unknown names land in
    /// `extras` untouched.
    [[nodiscard]] static ServerHealth
    from_fields(const std::vector<StatField>& fields);

    /// The wire fields in wire order, then `extras`.
    [[nodiscard]] std::vector<StatField> to_fields() const;
};

/// One registry entry in an `OK MODELS` response.
struct ModelSetInfo {
    std::string name;
    std::uint64_t generation = 0;
    std::uint64_t models = 0;
};

/// Per-algorithm request-latency quartet of an `OK STATS` reply
/// (`<algo>_count`, `<algo>_p50_us`, ...).
struct AlgorithmStats {
    std::uint64_t count = 0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
};

/// The typed view of an `OK STATS` reply: every field the current
/// protocol revision emits, plus `extras` holding any `key=value` pair
/// this build does not know (the forward-compat contract — decoders
/// ignore unknown keys, and this struct *preserves* them).  Produced by
/// from_fields() over a decoded StatField vector; consumed by
/// ServeClient::stats(), the fpmpart_serve shutdown dump and the tests,
/// none of which grep raw reply text.  The wire name of each member is
/// written once, in protocol.cpp's field list for the view, which both
/// from_fields() and to_fields() walk.
struct ServerStats {
    // -- engine -------------------------------------------------------
    std::uint64_t requests = 0;
    std::uint64_t computed = 0;
    std::uint64_t degraded = 0;
    double mean_latency_us = 0.0;
    double max_latency_us = 0.0;
    /// Indexed by static_cast<std::size_t>(Algorithm), like
    /// EngineStats::latency_by_algorithm.
    std::array<AlgorithmStats, kAlgorithmCount> by_algorithm{};

    // -- plan cache ---------------------------------------------------
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t cache_size = 0;
    std::uint64_t cache_shards = 0;  ///< lock stripes of the plan cache

    // -- registry / fault layer ---------------------------------------
    std::uint64_t models = 0;
    std::uint64_t faults = 0;

    // -- reactor pool (process-global gauges/counters) ----------------
    std::uint64_t reactors = 0;  ///< event-loop threads of the running pool
    std::int64_t open_conns = 0;
    std::int64_t buffered_bytes = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t idle_timeouts = 0;
    std::uint64_t send_failures = 0;
    std::uint64_t pipelined = 0;
    double q2r_p50_us = 0.0;
    double q2r_p95_us = 0.0;
    double q2r_p99_us = 0.0;

    // -- online adaptation --------------------------------------------
    std::uint64_t adapt_samples = 0;
    std::uint64_t adapt_reliable = 0;
    std::uint64_t adapt_drift = 0;
    std::uint64_t adapt_republished = 0;
    std::uint64_t adapt_model_version = 0;

    // -- durable model store ------------------------------------------
    std::uint64_t store_appended = 0;   ///< WAL records written
    std::uint64_t store_bytes = 0;      ///< WAL bytes written
    std::uint64_t store_snapshots = 0;  ///< compacted snapshots taken
    double store_fsync_p50_us = 0.0;
    double store_fsync_p95_us = 0.0;
    double store_fsync_p99_us = 0.0;
    std::uint64_t recovered_generation = 0;  ///< restored at startup

    // -- replication (v6; defaults when replication is not configured) --
    std::string role = "primary";        ///< "primary" or "replica"
    std::uint64_t repl_lag_frames = 0;   ///< committed minus applied gen
    double repl_lag_seconds = 0.0;       ///< staleness vs the source
    std::string repl_source = "-";       ///< replica: upstream host:port
    std::uint64_t repl_applied_generation = 0;  ///< last applied gen

    /// Unknown `key=value` pairs, verbatim (e.g. fields added by a newer
    /// server).  Known fields never appear here.
    std::map<std::string, std::string> extras;

    /// Parses a decoded STATS field vector.  Throws fpm::Error when a
    /// *known* field carries a malformed value; unknown names land in
    /// `extras` untouched.
    [[nodiscard]] static ServerStats
    from_fields(const std::vector<StatField>& fields);

    /// The wire fields in wire order, then `extras`.
    [[nodiscard]] std::vector<StatField> to_fields() const;
};

/// A response message: a tagged struct mirroring Request.  decode()
/// never throws on `ERR` lines — they decode to kError — but throws
/// fpm::Error on structurally malformed replies.
struct Response {
    enum class Kind { kError, kPong, kBye, kLoaded, kModels, kStats,
                      kHealth, kPartition, kFeedback };

    Kind kind = Kind::kError;
    std::string error;                 ///< kError: human-readable message
    /// kError: the stable machine-readable classification.  Set by
    /// make_error and by decode() (kInternal for a token this build does
    /// not know).
    ErrorCode error_code = ErrorCode::kInternal;
    int version = kProtocolVersion;    ///< kPong
    LoadedReply loaded;                ///< kLoaded
    std::vector<ModelSetInfo> sets;    ///< kModels
    /// kStats, kHealth: the key=value list (typed views: ServerStats and
    /// ServerHealth::from_fields).
    std::vector<StatField> fields;
    PartitionReply partition;          ///< kPartition
    FeedbackReply feedback;            ///< kFeedback

    [[nodiscard]] std::string encode() const;
    [[nodiscard]] static Response decode(std::string_view line);

    /// Typed error; an empty `message` means the reply carries the code
    /// token alone (`ERR busy`), which is also how it decodes.
    [[nodiscard]] static Response make_error(ErrorCode code,
                                             const std::string& message = {});
};

/// Builds the typed partition payload for a served response.
[[nodiscard]] PartitionReply
make_partition_reply(const PartitionRequest& request,
                     const PartitionResponse& response);

/// Appends the part of an `OK PARTITION` line that the plan alone
/// decides: ` balanced=… makespan=… comm=… blocks=… layout=…`, with its
/// leading space.  The one writer of those fields: Response::encode()
/// calls it on a PartitionReply, and RequestEngine::compute_plan() once
/// per plan, storing the bytes in PartitionPlan::reply_fields.
void append_partition_fields(std::string& out, double balanced_time,
                             double makespan, std::int64_t comm_cost,
                             std::span<const std::int64_t> blocks,
                             std::span<const part::Rect> rects);

/// Appends the served `OK PARTITION` line (no newline): the head that the
/// request and `response`'s flags decide, then the plan's stored
/// reply_fields, byte-identical to
/// `Response{make_partition_reply(request, response)}.encode()`.  Throws
/// fpm::Error, before appending anything, for a plan without stored
/// fields; only RequestEngine::compute_plan() makes the plans an engine
/// serves, and it always stores them.
void append_partition_line(std::string& out, const PartitionRequest& request,
                           const PartitionResponse& response);

/// Builds the STATS response: engine counters, cache, per-algorithm
/// latency quantiles and replication status, plus the reactor's
/// gauges/counters, the queue-to-reply quantiles, the adaptation
/// counters (adapt_*) and the durable-store instruments (store_*,
/// recovered_generation), all read from the process-global
/// obs::MetricsRegistry (zero when no server/adapter/store ran yet).
[[nodiscard]] Response make_stats_reply(const EngineStats& engine,
                                        std::size_t model_count);

/// The `ERR` reply for the exception being handled; call it only inside
/// a catch handler.  A ServiceError keeps its code and any other failure
/// takes `fallback`.  The text is the failure's message alone
/// (fpm::Error::message()), so a failed FPM_CHECK's expression and
/// source location never reach the wire.
[[nodiscard]] Response current_error(ErrorCode fallback);

/// Executes one decoded request against the engine (and its registry)
/// and returns its encoded reply line (no newline); never throws.
/// Failures become `ERR` lines through current_error(ErrorCode::kInternal).
/// A PARTITION answer is append_partition_line(): the plan's stored
/// fields, encoded once when compute_plan() made it.  Everything runs on
/// the calling thread: the reactor calls this inline for PING, QUIT,
/// STATS, HEALTH and MODELS, answers PARTITION cache hits itself
/// (try_execute_cached() and append_partition_line() on the loop), and
/// calls this on the engine pool for PARTITION misses, FEEDBACK and LOAD.
[[nodiscard]] std::string handle_request(RequestEngine& engine,
                                         const Request& request);

/// Line-in/line-out convenience used by tests and in-process callers:
/// decode, then handle_request().  Never throws: a line that does not
/// decode answers `ERR bad_request` (or the decoder's own code); QUIT
/// answers `OK BYE` (hanging up is the transport's job).
[[nodiscard]] std::string handle_line(RequestEngine& engine,
                                      std::string_view line);

/// Returns `response` when it is of kind `expected`; an `ERR` reply
/// throws ServiceError (carrying the server's code and message), any
/// other kind fpm::Error.  Every typed client call checks its reply
/// through this.
[[nodiscard]] Response expect_reply(Response response,
                                    Response::Kind expected);

/// Decodes a reply expected to be `OK PARTITION ...`; throws like
/// expect_reply(), and fpm::Error on a malformed line.
[[nodiscard]] PartitionReply parse_partition_reply(std::string_view reply);

/// Stable 64-bit fingerprint of a request's encoded wire line (FNV-1a).
/// ServeClient keys its retry jitter stream on this, so identical
/// requests replay the same backoff schedule.
[[nodiscard]] std::uint64_t request_fingerprint(const Request& request);

} // namespace fpm::serve
