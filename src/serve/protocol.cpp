#include "fpm/serve/protocol.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <utility>

#include "fpm/common/error.hpp"
#include "fpm/common/hash.hpp"
#include "fpm/common/split.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/serve/reactor_metrics.hpp"

namespace fpm::serve {

namespace {

// ---------------------------------------------------------------------------
// Splitting (lines split into tokens and parts by fpm/common/split.hpp)
// ---------------------------------------------------------------------------

/// Splits `token` at the first '=' and checks the key.
std::string_view expect_kv(std::string_view token, const char* key) {
    const auto eq = token.find('=');
    FPM_CHECK(eq != std::string_view::npos && token.substr(0, eq) == key,
              std::string("expected ") + key + "=..., got: " +
                  std::string(token));
    return token.substr(eq + 1);
}

// ---------------------------------------------------------------------------
// Numbers
// ---------------------------------------------------------------------------

/// A whole-token decimal integer in strtoll's grammar: leading wire
/// whitespace, an optional '+' or '-', digits (leading zeros allowed); a
/// value outside int64 is malformed.
std::int64_t parse_int(std::string_view text, const char* what) {
    std::string_view digits = text;
    while (!digits.empty() && is_wire_space(digits.front())) {
        digits.remove_prefix(1);
    }
    // from_chars takes '-' but not '+'; "+-5" keeps its '+' and fails.
    if (digits.size() > 1 && digits[0] == '+' && digits[1] >= '0' &&
        digits[1] <= '9') {
        digits.remove_prefix(1);
    }
    std::int64_t value = 0;
    const char* const end = digits.data() + digits.size();
    const auto parsed = std::from_chars(digits.data(), end, value);
    FPM_CHECK(parsed.ec == std::errc{} && parsed.ptr == end,
              std::string("malformed ") + what + ": " + std::string(text));
    return value;
}

/// parse_int() narrowed to T: a value T cannot hold, a negative one for an
/// unsigned T included, is malformed.
template <std::integral T>
T parse_int_as(std::string_view text, const char* what) {
    const std::int64_t value = parse_int(text, what);
    FPM_CHECK(std::in_range<T>(value),
              std::string("malformed ") + what + ": " + std::string(text));
    return static_cast<T>(value);
}

/// Runs a C `strto*` parser over a NUL-terminated copy of `text`, which it
/// must consume whole without a range error.
template <class Parse>
auto parse_whole(std::string_view text, const char* what, Parse parse) {
    const std::string copy(text);
    char* end = nullptr;
    errno = 0;
    const auto value = parse(copy.c_str(), &end);
    FPM_CHECK(end != copy.c_str() && end == copy.c_str() + copy.size() &&
                  errno == 0,
              std::string("malformed ") + what + ": " + copy);
    return value;
}

/// A fingerprint: one to sixteen hex digits, with no sign, prefix or space.
std::uint64_t parse_hex64(std::string_view text, const char* what) {
    std::uint64_t value = 0;
    const char* const end = text.data() + text.size();
    const auto parsed = std::from_chars(text.data(), end, value, 16);
    FPM_CHECK(text.size() <= 16 && parsed.ec == std::errc{} && parsed.ptr == end,
              std::string("malformed ") + what + ": " + std::string(text));
    return value;
}

/// strtod's grammar, hex floats and `inf`/`nan` included; an overflow or
/// underflow (ERANGE) is malformed.
double parse_double(std::string_view text, const char* what) {
    return parse_whole(text, what, [](const char* begin, char** end) {
        return std::strtod(begin, end);
    });
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// A fingerprint on the wire: sixteen lower-case hex digits, zero-padded.
struct Hex64 {
    std::uint64_t value = 0;
};

void append_one(std::string& out, std::string_view text) { out += text; }

void append_one(std::string& out, char ch) { out += ch; }

template <std::integral T>
void append_one(std::string& out, T value) {
    char buffer[24];
    const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
    out.append(buffer, result.ptr);
}

/// Round-trip-exact decimal: %.17g, 17 significant digits (0.1 prints as
/// 0.10000000000000001).  Not std::to_chars with precision 17, which
/// prints the same bytes but pages in about 0.2 MB of conversion tables.
void append_one(std::string& out, double value) {
    char buffer[32];
    const int size = std::snprintf(buffer, sizeof buffer, "%.17g", value);
    out.append(buffer, static_cast<std::size_t>(size));
}

void append_one(std::string& out, Hex64 hex) {
    char buffer[16];
    const auto result =
        std::to_chars(buffer, buffer + sizeof buffer, hex.value, 16);
    out.append(static_cast<std::size_t>(buffer + sizeof buffer - result.ptr),
               '0');
    out.append(buffer, result.ptr);
}

/// Appends each part in turn: text and characters verbatim, integers in
/// decimal, doubles round-trip exact, Hex64 as sixteen hex digits.
template <class... Parts>
void append(std::string& out, const Parts&... parts) {
    (append_one(out, parts), ...);
}

/// A wire flag.
constexpr char flag(bool value) noexcept { return value ? '1' : '0'; }

std::string sanitize(std::string_view message) {
    std::string clean(message);
    for (char& ch : clean) {
        if (ch == '\n' || ch == '\r') {
            ch = ' ';
        }
    }
    return clean;
}

/// The head of an `OK PARTITION` line: what the request and the way it
/// was served decide.  append_partition_fields() writes the rest.
void append_partition_head(std::string& out, std::string_view model,
                           std::uint64_t generation, std::int64_t n,
                           Algorithm algorithm, bool cached, bool degraded) {
    append(out, "OK PARTITION model=", model, " gen=", generation, " n=", n,
           " algo=", part::to_string(algorithm), " cached=", flag(cached),
           " degraded=", flag(degraded));
}

} // namespace

// ---------------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------------

std::string Request::encode() const {
    switch (kind) {
    case Kind::kPing:
        return "PING";
    case Kind::kQuit:
        return "QUIT";
    case Kind::kStats:
        return "STATS";
    case Kind::kHealth:
        return "HEALTH";
    case Kind::kModels:
        return "MODELS";
    case Kind::kLoad:
        return "LOAD " + name + " " + path;
    case Kind::kPartition: {
        std::string out;
        append(out, "PARTITION ", partition.model_set, ' ', partition.n, ' ',
               part::to_string(partition.algorithm));
        if (!partition.with_layout) {
            out += " nolayout";
        }
        return out;
    }
    case Kind::kFeedback: {
        std::string out;
        append(out, "FEEDBACK ", feedback.model_set, ' ', feedback.device, ' ',
               feedback.problem_size, ' ', feedback.seconds);
        return out;
    }
    }
    throw Error("unencodable request");
}

Request Request::decode(std::string_view line) {
    // Five tokens is the longest request; the count covers any more.
    const auto tokens = tokens_of<5>(line);
    FPM_CHECK(tokens.size > 0, "empty request");
    const std::string_view verb = tokens[0];

    Request request;
    if (verb == "PING") {
        FPM_CHECK(tokens.size == 1, "PING takes no arguments");
        request.kind = Kind::kPing;
    } else if (verb == "QUIT") {
        FPM_CHECK(tokens.size == 1, "QUIT takes no arguments");
        request.kind = Kind::kQuit;
    } else if (verb == "STATS") {
        FPM_CHECK(tokens.size == 1, "STATS takes no arguments");
        request.kind = Kind::kStats;
    } else if (verb == "HEALTH") {
        FPM_CHECK(tokens.size == 1, "HEALTH takes no arguments");
        request.kind = Kind::kHealth;
    } else if (verb == "MODELS") {
        FPM_CHECK(tokens.size == 1, "MODELS takes no arguments");
        request.kind = Kind::kModels;
    } else if (verb == "LOAD") {
        FPM_CHECK(tokens.size == 3, "usage: LOAD <name> <path>");
        request.kind = Kind::kLoad;
        request.name = tokens[1];
        request.path = tokens[2];
    } else if (verb == "PARTITION") {
        FPM_CHECK(tokens.size == 4 || tokens.size == 5,
                  "usage: PARTITION <model> <n> <fpm|cpm|even> [nolayout]");
        request.kind = Kind::kPartition;
        request.partition.model_set = tokens[1];
        request.partition.n = parse_int(tokens[2], "workload size");
        FPM_CHECK(request.partition.n > 0, "workload size must be positive");
        FPM_CHECK(request.partition.n <= part::kMaxN,
                  "workload size exceeds 2^26: " + std::string(tokens[2]));
        const auto algorithm = part::parse_algorithm(tokens[3]);
        FPM_CHECK(algorithm.has_value(),
                  "unknown algorithm: " + std::string(tokens[3]));
        request.partition.algorithm = *algorithm;
        if (tokens.size == 5) {
            FPM_CHECK(tokens[4] == "nolayout",
                      "unknown PARTITION option: " + std::string(tokens[4]));
            request.partition.with_layout = false;
        }
    } else if (verb == "FEEDBACK") {
        FPM_CHECK(tokens.size == 5,
                  "usage: FEEDBACK <model> <device> <size> <seconds>");
        request.kind = Kind::kFeedback;
        request.feedback.model_set = tokens[1];
        request.feedback.device = parse_int(tokens[2], "device index");
        FPM_CHECK(request.feedback.device >= 0,
                  "device index must be non-negative");
        request.feedback.problem_size =
            parse_double(tokens[3], "problem size");
        FPM_CHECK(std::isfinite(request.feedback.problem_size) &&
                      request.feedback.problem_size > 0.0,
                  "problem size must be positive and finite");
        request.feedback.seconds = parse_double(tokens[4], "measured time");
        FPM_CHECK(std::isfinite(request.feedback.seconds) &&
                      request.feedback.seconds > 0.0,
                  "measured time must be positive and finite");
    } else {
        // Typed so the wire answer is `ERR unsupported_verb ...` — the
        // code a newer client probes for when feature-detecting verbs.
        throw ServiceError(ErrorCode::kUnsupportedVerb,
                           "unknown command: " + std::string(verb));
    }
    return request;
}

// ---------------------------------------------------------------------------
// Response
// ---------------------------------------------------------------------------

Response Response::make_error(ErrorCode code, const std::string& message) {
    Response response;
    response.kind = Kind::kError;
    response.error_code = code;
    // `error` is never empty: a message-less typed error carries the
    // token text itself, so callers testing `!error.empty()` keep
    // detecting failure.
    response.error =
        message.empty() ? std::string(error_token(code)) : sanitize(message);
    return response;
}

std::string Response::encode() const {
    std::string out;
    switch (kind) {
    case Kind::kError: {
        // `ERR <code>` when the message is just the token (or empty),
        // `ERR <code> <message>` otherwise.
        const std::string_view token = error_token(error_code);
        out = "ERR ";
        out += token;
        if (!error.empty() && error != token) {
            out += ' ';
            out += sanitize(error);
        }
        return out;
    }
    case Kind::kPong:
        append(out, "OK PONG v", version);
        return out;
    case Kind::kBye:
        return "OK BYE";
    case Kind::kLoaded:
        append(out, "OK LOADED name=", loaded.name, " models=", loaded.models,
               " gen=", loaded.generation, " fingerprint=",
               Hex64{loaded.fingerprint});
        return out;
    case Kind::kModels:
        append(out, "OK MODELS count=", sets.size(), " sets=");
        if (sets.empty()) {
            out += '-';
        }
        for (std::size_t i = 0; i < sets.size(); ++i) {
            if (i > 0) {
                out += ',';
            }
            append(out, sets[i].name, ':', sets[i].generation, ':',
                   sets[i].models);
        }
        return out;
    case Kind::kStats:
    case Kind::kHealth:
        out = kind == Kind::kStats ? "OK STATS" : "OK HEALTH";
        for (const StatField& field : fields) {
            append(out, ' ', field.name, '=', field.value);
        }
        return out;
    case Kind::kPartition:
        append_partition_head(out, partition.model, partition.generation,
                              partition.n, partition.algorithm,
                              partition.cached, partition.degraded);
        append_partition_fields(out, partition.balanced_time,
                                partition.makespan, partition.comm_cost,
                                partition.blocks, partition.rects);
        return out;
    case Kind::kFeedback:
        append(out, "OK FEEDBACK set=", feedback.model_set,
               " device=", feedback.device, " samples=", feedback.samples,
               " reliable=", flag(feedback.reliable),
               " drift=", flag(feedback.drift),
               " republished=", flag(feedback.republished),
               " version=", feedback.version);
        return out;
    }
    throw Error("unencodable response");
}

Response Response::decode(std::string_view line) {
    Response response;
    if (line.starts_with("ERR")) {
        response.kind = Kind::kError;
        const std::string_view body =
            line.size() > 4 ? line.substr(4) : std::string_view{};
        // The first token is an ErrorCode token.  One this build does not
        // know (a newer server added it) decodes as kInternal with the
        // whole body kept as the message.
        const auto space = body.find(' ');
        const std::string_view head = body.substr(0, space);
        if (const auto code = parse_error_token(head)) {
            response.error_code = *code;
            response.error = space == std::string_view::npos
                                 ? head  // token alone; never empty
                                 : body.substr(space + 1);
        } else {
            response.error = body;
        }
        return response;
    }
    // Thirteen tokens is the longest fixed-arity reply (PARTITION); STATS
    // and HEALTH walk the line for their open field lists.
    const auto tokens = tokens_of<13>(line);
    FPM_CHECK(tokens.size >= 2 && tokens[0] == "OK",
              "malformed response: " + std::string(line));
    const std::string_view tag = tokens[1];

    if (tag == "PONG") {
        FPM_CHECK(tokens.size == 3 && tokens[2].size() > 1 &&
                      tokens[2][0] == 'v',
                  "malformed PONG reply: " + std::string(line));
        response.kind = Kind::kPong;
        response.version =
            parse_int_as<int>(tokens[2].substr(1), "protocol version");
        FPM_CHECK(response.version > 0,
                  "malformed protocol version: " +
                      std::string(tokens[2].substr(1)));
    } else if (tag == "BYE") {
        FPM_CHECK(tokens.size == 2,
                  "malformed BYE reply: " + std::string(line));
        response.kind = Kind::kBye;
    } else if (tag == "LOADED") {
        FPM_CHECK(tokens.size == 6,
                  "malformed LOADED reply: " + std::string(line));
        response.kind = Kind::kLoaded;
        response.loaded.name = expect_kv(tokens[2], "name");
        response.loaded.models = parse_int_as<std::uint64_t>(
            expect_kv(tokens[3], "models"), "model count");
        response.loaded.generation = parse_int_as<std::uint64_t>(
            expect_kv(tokens[4], "gen"), "generation");
        response.loaded.fingerprint =
            parse_hex64(expect_kv(tokens[5], "fingerprint"), "fingerprint");
    } else if (tag == "MODELS") {
        FPM_CHECK(tokens.size == 4,
                  "malformed MODELS reply: " + std::string(line));
        response.kind = Kind::kModels;
        const auto count = parse_int_as<std::uint64_t>(
            expect_kv(tokens[2], "count"), "set count");
        const std::string_view sets_text = expect_kv(tokens[3], "sets");
        if (sets_text != "-") {
            for_each_part(sets_text, ',', [&response](std::string_view entry) {
                const auto fields = parts_of<4>(entry, ':');
                FPM_CHECK(fields.size == 3,
                          "malformed model-set entry: " + std::string(entry));
                ModelSetInfo info;
                info.name = fields[0];
                info.generation =
                    parse_int_as<std::uint64_t>(fields[1], "generation");
                info.models =
                    parse_int_as<std::uint64_t>(fields[2], "model count");
                response.sets.push_back(std::move(info));
            });
        }
        FPM_CHECK(response.sets.size() == count,
                  "MODELS count disagrees with its set list: " +
                      std::string(line));
    } else if (tag == "STATS" || tag == "HEALTH") {
        response.kind = tag == "STATS" ? Kind::kStats : Kind::kHealth;
        std::string_view rest = line;
        (void)next_token(rest);  // OK
        (void)next_token(rest);  // the tag
        for (std::string_view field = next_token(rest); !field.empty();
             field = next_token(rest)) {
            const auto eq = field.find('=');
            FPM_CHECK(eq != std::string_view::npos && eq > 0,
                      "malformed " + std::string(tag) +
                          " field: " + std::string(field));
            response.fields.push_back({std::string(field.substr(0, eq)),
                                       std::string(field.substr(eq + 1))});
        }
    } else if (tag == "PARTITION") {
        FPM_CHECK(tokens.size == 13,
                  "malformed partition reply: " + std::string(line));
        response.kind = Kind::kPartition;
        PartitionReply& parsed = response.partition;
        parsed.model = expect_kv(tokens[2], "model");
        parsed.generation = parse_int_as<std::uint64_t>(
            expect_kv(tokens[3], "gen"), "generation");
        parsed.n = parse_int(expect_kv(tokens[4], "n"), "n");
        const auto algorithm =
            part::parse_algorithm(expect_kv(tokens[5], "algo"));
        FPM_CHECK(algorithm.has_value(),
                  "malformed algorithm in reply: " + std::string(line));
        parsed.algorithm = *algorithm;
        parsed.cached =
            parse_int(expect_kv(tokens[6], "cached"), "cached") != 0;
        parsed.degraded =
            parse_int(expect_kv(tokens[7], "degraded"), "degraded") != 0;
        parsed.balanced_time =
            parse_double(expect_kv(tokens[8], "balanced"), "balanced time");
        parsed.makespan =
            parse_double(expect_kv(tokens[9], "makespan"), "makespan");
        parsed.comm_cost = parse_int(expect_kv(tokens[10], "comm"), "comm cost");
        for_each_part(expect_kv(tokens[11], "blocks"), ',',
                      [&parsed](std::string_view cell) {
                          parsed.blocks.push_back(
                              parse_int(cell, "block count"));
                      });
        const std::string_view layout_text = expect_kv(tokens[12], "layout");
        if (layout_text != "-") {
            for_each_part(layout_text, '|', [&parsed](std::string_view text) {
                const auto fields = parts_of<4>(text, ':');
                FPM_CHECK(fields.size == 4,
                          "malformed rect: " + std::string(text));
                part::Rect rect;
                rect.col0 = parse_int(fields[0], "rect col0");
                rect.row0 = parse_int(fields[1], "rect row0");
                rect.w = parse_int(fields[2], "rect w");
                rect.h = parse_int(fields[3], "rect h");
                parsed.rects.push_back(rect);
            });
        }
    } else if (tag == "FEEDBACK") {
        FPM_CHECK(tokens.size == 9,
                  "malformed FEEDBACK reply: " + std::string(line));
        response.kind = Kind::kFeedback;
        FeedbackReply& parsed = response.feedback;
        parsed.model_set = expect_kv(tokens[2], "set");
        parsed.device = parse_int(expect_kv(tokens[3], "device"), "device");
        parsed.samples = parse_int_as<std::uint64_t>(
            expect_kv(tokens[4], "samples"), "sample count");
        parsed.reliable =
            parse_int(expect_kv(tokens[5], "reliable"), "reliable") != 0;
        parsed.drift = parse_int(expect_kv(tokens[6], "drift"), "drift") != 0;
        parsed.republished =
            parse_int(expect_kv(tokens[7], "republished"), "republished") != 0;
        parsed.version = parse_int_as<std::uint64_t>(
            expect_kv(tokens[8], "version"), "version");
    } else {
        throw Error("unknown response tag: " + std::string(tag));
    }
    return response;
}

// ---------------------------------------------------------------------------
// Builders and dispatch
// ---------------------------------------------------------------------------

PartitionReply make_partition_reply(const PartitionRequest& request,
                                    const PartitionResponse& response) {
    const PartitionPlan& plan = *response.plan;
    PartitionReply reply;
    reply.model = request.model_set;
    reply.generation = plan.generation;
    reply.n = plan.key.n;
    reply.algorithm = plan.key.algorithm;
    reply.cached = response.cache_hit;
    reply.degraded = response.degraded;
    reply.balanced_time = plan.balanced_time;
    reply.makespan = plan.makespan;
    reply.comm_cost = plan.comm_cost;
    reply.blocks = plan.blocks;
    if (plan.key.with_layout) {
        reply.rects = plan.layout.rects;
    }
    return reply;
}

void append_partition_fields(std::string& out, double balanced_time,
                             double makespan, std::int64_t comm_cost,
                             std::span<const std::int64_t> blocks,
                             std::span<const part::Rect> rects) {
    append(out, " balanced=", balanced_time, " makespan=", makespan,
           " comm=", comm_cost, " blocks=");
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        if (i > 0) {
            out += ',';
        }
        append(out, blocks[i]);
    }
    out += " layout=";
    if (rects.empty()) {
        out += '-';
    }
    for (std::size_t i = 0; i < rects.size(); ++i) {
        const part::Rect& rect = rects[i];
        if (i > 0) {
            out += '|';
        }
        append(out, rect.col0, ':', rect.row0, ':', rect.w, ':', rect.h);
    }
}

void append_partition_line(std::string& out, const PartitionRequest& request,
                           const PartitionResponse& response) {
    const PartitionPlan& plan = *response.plan;
    FPM_CHECK(!plan.reply_fields.empty(),
              "served plan carries no encoded reply fields");
    append_partition_head(out, request.model_set, plan.generation, plan.key.n,
                          plan.key.algorithm, response.cache_hit,
                          response.degraded);
    out += plan.reply_fields;
}

// ---------------------------------------------------------------------------
// STATS and HEALTH: one field list per typed view
// ---------------------------------------------------------------------------

namespace {

template <class Self, class View>
concept ViewOf = std::same_as<std::remove_const_t<Self>, View>;

/// The STATS field list: every wire field in wire order, named once next
/// to the member it binds.  `field(name, member)` renders or parses it.
template <ViewOf<ServerStats> Self, class Field>
void visit_fields(Self& s, Field&& field) {
    field("requests", s.requests);
    field("computed", s.computed);
    field("hits", s.hits);
    field("misses", s.misses);
    field("evictions", s.evictions);
    field("cache_size", s.cache_size);
    field("cache_shards", s.cache_shards);
    field("models", s.models);
    field("degraded", s.degraded);
    field("faults", s.faults);
    field("mean_latency_us", s.mean_latency_us);
    field("max_latency_us", s.max_latency_us);
    for (std::size_t i = 0; i < kAlgorithmCount; ++i) {
        const std::string algo = part::to_string(static_cast<Algorithm>(i));
        auto& latency = s.by_algorithm[i];
        field(algo + "_count", latency.count);
        field(algo + "_p50_us", latency.p50_us);
        field(algo + "_p95_us", latency.p95_us);
        field(algo + "_p99_us", latency.p99_us);
    }
    field("reactors", s.reactors);
    field("open_conns", s.open_conns);
    field("buffered_bytes", s.buffered_bytes);
    field("accepted", s.accepted);
    field("rejected", s.rejected);
    field("idle_timeouts", s.idle_timeouts);
    field("send_failures", s.send_failures);
    field("pipelined", s.pipelined);
    field("q2r_p50_us", s.q2r_p50_us);
    field("q2r_p95_us", s.q2r_p95_us);
    field("q2r_p99_us", s.q2r_p99_us);
    field("adapt_samples", s.adapt_samples);
    field("adapt_reliable", s.adapt_reliable);
    field("adapt_drift", s.adapt_drift);
    field("adapt_republished", s.adapt_republished);
    field("adapt_model_version", s.adapt_model_version);
    field("store_appended", s.store_appended);
    field("store_bytes", s.store_bytes);
    field("store_snapshots", s.store_snapshots);
    field("store_fsync_p50_us", s.store_fsync_p50_us);
    field("store_fsync_p95_us", s.store_fsync_p95_us);
    field("store_fsync_p99_us", s.store_fsync_p99_us);
    field("recovered_generation", s.recovered_generation);
    field("role", s.role);
    field("repl_lag_frames", s.repl_lag_frames);
    field("repl_lag_seconds", s.repl_lag_seconds);
    field("repl_source", s.repl_source);
    field("repl_applied_generation", s.repl_applied_generation);
}

/// The HEALTH field list, like the STATS one.
template <ViewOf<ServerHealth> Self, class Field>
void visit_fields(Self& h, Field&& field) {
    field("live", h.live);
    field("ready", h.ready);
    field("models", h.models);
    field("faults", h.faults_injected);
    field("degraded", h.degraded);
    field("recovered_generation", h.recovered_generation);
    field("role", h.role);
    field("repl_lag_frames", h.repl_lag_frames);
    field("repl_lag_seconds", h.repl_lag_seconds);
    field("repl_source", h.repl_source);
    field("repl_applied_generation", h.repl_applied_generation);
}

/// Wire form of one member: 0/1, decimal integer, %.17g double, or the
/// string verbatim.
template <class T>
std::string render_value(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
        return value ? "1" : "0";
    } else if constexpr (std::is_same_v<T, std::string>) {
        return value;
    } else {
        std::string text;
        append(text, value);
        return text;
    }
}

/// Inverse of render_value(); throws fpm::Error on a malformed value
/// (an empty string included).
template <class T>
void parse_value(T& member, const std::string& name, const std::string& text) {
    if constexpr (std::is_same_v<T, bool>) {
        member = parse_int(text, name.c_str()) != 0;
    } else if constexpr (std::is_same_v<T, double>) {
        member = parse_double(text, name.c_str());
    } else if constexpr (std::is_same_v<T, std::string>) {
        FPM_CHECK(!text.empty(), "malformed value for " + name);
        member = text;
    } else {
        member = parse_int_as<T>(text, name.c_str());
    }
}

template <class View>
std::vector<StatField> render_fields(const View& view) {
    std::vector<StatField> fields;
    visit_fields(view, [&](std::string name, const auto& member) {
        fields.push_back({std::move(name), render_value(member)});
    });
    for (const auto& [name, value] : view.extras) {
        fields.push_back({name, value});
    }
    return fields;
}

/// Every field starts in `extras` (a repeated name keeps its last
/// value); the field list then moves each known one into its member.
template <class View>
View parse_fields(const std::vector<StatField>& fields) {
    View view;
    for (const StatField& field : fields) {
        view.extras[field.name] = field.value;
    }
    visit_fields(view, [&](const std::string& name, auto& member) {
        const auto it = view.extras.find(name);
        if (it != view.extras.end()) {
            parse_value(member, name, it->second);
            view.extras.erase(it);
        }
    });
    return view;
}

std::uint64_t recovered_generation() {
    static auto& recovered =
        obs::MetricsRegistry::global().gauge("store.recovered_generation");
    return static_cast<std::uint64_t>(recovered.value());
}

} // namespace

ServerStats ServerStats::from_fields(const std::vector<StatField>& fields) {
    return parse_fields<ServerStats>(fields);
}

std::vector<StatField> ServerStats::to_fields() const {
    return render_fields(*this);
}

ServerHealth ServerHealth::from_fields(const std::vector<StatField>& fields) {
    return parse_fields<ServerHealth>(fields);
}

std::vector<StatField> ServerHealth::to_fields() const {
    return render_fields(*this);
}

Response make_stats_reply(const EngineStats& engine, std::size_t model_count) {
    ServerStats s;
    s.requests = engine.requests;
    s.computed = engine.computed;
    s.degraded = engine.degraded;
    s.hits = engine.cache.hits;
    s.misses = engine.cache.misses;
    s.evictions = engine.cache.evictions;
    s.cache_size = engine.cache.size;
    s.cache_shards = engine.cache_shards;
    s.models = model_count;
    s.faults = fault::injected_total();
    // Every request lands in exactly one per-algorithm histogram, so
    // their counts, sums and maxima cover all requests.
    std::uint64_t count = 0;
    double sum = 0.0;
    for (std::size_t i = 0; i < kAlgorithmCount; ++i) {
        const obs::HistogramSnapshot& latency = engine.latency_by_algorithm[i];
        s.by_algorithm[i] = {latency.count, latency.p50 * 1e6,
                             latency.p95 * 1e6, latency.p99 * 1e6};
        count += latency.count;
        sum += latency.sum;
        s.max_latency_us = std::max(s.max_latency_us, latency.max * 1e6);
    }
    s.mean_latency_us =
        count == 0 ? 0.0 : sum / static_cast<double>(count) * 1e6;

    // Reactor lifecycle: process-global, so STATS works identically over
    // the wire and in-process (all-zero until a server has run).
    const ReactorMetrics& reactor = ReactorMetrics::get();
    s.reactors = static_cast<std::uint64_t>(reactor.reactors.value());
    s.open_conns = reactor.open_connections.value();
    s.buffered_bytes = reactor.buffered_bytes.value();
    s.accepted = reactor.accepted.value();
    s.rejected = reactor.rejected.value();
    s.idle_timeouts = reactor.idle_timeouts.value();
    s.send_failures = reactor.send_failures.value();
    s.pipelined = reactor.pipelined.value();
    const obs::HistogramSnapshot q2r =
        reactor.queue_to_reply_seconds.snapshot();
    s.q2r_p50_us = q2r.p50 * 1e6;
    s.q2r_p95_us = q2r.p95 * 1e6;
    s.q2r_p99_us = q2r.p99 * 1e6;

    // Online adaptation and the durable store: also process-global (both
    // layers sit above serve, so the raw instruments are read by name).
    // All zero until an AdaptEngine ingested feedback / a store attached.
    static auto& metrics = obs::MetricsRegistry::global();
    static auto& adapt_samples = metrics.counter("adapt.samples");
    static auto& adapt_reliable = metrics.counter("adapt.reliable");
    static auto& adapt_drift = metrics.counter("adapt.drift");
    static auto& adapt_republished = metrics.counter("adapt.republished");
    static auto& adapt_version = metrics.gauge("adapt.model_version");
    static auto& store_appended = metrics.counter("store.appended");
    static auto& store_bytes = metrics.counter("store.bytes");
    static auto& store_snapshots = metrics.counter("store.snapshots");
    static auto& store_fsync = metrics.histogram("store.fsync_seconds");
    s.adapt_samples = adapt_samples.value();
    s.adapt_reliable = adapt_reliable.value();
    s.adapt_drift = adapt_drift.value();
    s.adapt_republished = adapt_republished.value();
    s.adapt_model_version = static_cast<std::uint64_t>(adapt_version.value());
    s.store_appended = store_appended.value();
    s.store_bytes = store_bytes.value();
    s.store_snapshots = store_snapshots.value();
    const obs::HistogramSnapshot fsync = store_fsync.snapshot();
    s.store_fsync_p50_us = fsync.p50 * 1e6;
    s.store_fsync_p95_us = fsync.p95 * 1e6;
    s.store_fsync_p99_us = fsync.p99 * 1e6;
    s.recovered_generation = recovered_generation();

    s.role = engine.role;
    s.repl_lag_frames = engine.repl_lag_frames;
    s.repl_lag_seconds = engine.repl_lag_seconds;
    s.repl_source = engine.repl_source;
    s.repl_applied_generation = engine.repl_applied_generation;

    Response response;
    response.kind = Response::Kind::kStats;
    response.fields = s.to_fields();
    return response;
}

Response current_error(ErrorCode fallback) {
    try {
        throw;
    } catch (const ServiceError& e) {
        return Response::make_error(e.code(), std::string(e.message()));
    } catch (const Error& e) {
        return Response::make_error(fallback, std::string(e.message()));
    } catch (const std::exception& e) {
        return Response::make_error(fallback, e.what());
    } catch (...) {
        return Response::make_error(fallback);
    }
}

std::string handle_request(RequestEngine& engine, const Request& request) {
    try {
        Response response;
        switch (request.kind) {
        case Request::Kind::kPing:
            response.kind = Response::Kind::kPong;
            response.version = kProtocolVersion;
            break;
        case Request::Kind::kQuit:
            response.kind = Response::Kind::kBye;
            break;
        case Request::Kind::kLoad: {
            if (engine.read_only()) {
                throw ServiceError(ErrorCode::kReadOnly,
                                   "replica is read-only: LOAD rejected");
            }
            const auto set =
                engine.registry().load_csv(request.name, request.path);
            response.kind = Response::Kind::kLoaded;
            response.loaded.name = set->name;
            response.loaded.models = set->models.size();
            response.loaded.generation = set->generation;
            response.loaded.fingerprint = set->fingerprint;
            break;
        }
        case Request::Kind::kModels: {
            response.kind = Response::Kind::kModels;
            for (const auto& set : engine.registry().snapshot()) {
                response.sets.push_back(ModelSetInfo{
                    set->name, set->generation, set->models.size()});
            }
            break;
        }
        case Request::Kind::kStats:
            response =
                make_stats_reply(engine.stats(), engine.registry().size());
            break;
        case Request::Kind::kHealth: {
            const EngineStats stats = engine.stats();
            ServerHealth health;
            health.models = engine.registry().size();
            health.ready = health.models > 0;
            health.faults_injected = fault::injected_total();
            health.degraded = stats.degraded;
            health.recovered_generation = recovered_generation();
            health.role = stats.role;
            health.repl_lag_frames = stats.repl_lag_frames;
            health.repl_lag_seconds = stats.repl_lag_seconds;
            health.repl_source = stats.repl_source;
            health.repl_applied_generation = stats.repl_applied_generation;
            response.kind = Response::Kind::kHealth;
            response.fields = health.to_fields();
            break;
        }
        case Request::Kind::kPartition: {
            std::string line;
            append_partition_line(line, request.partition,
                                  engine.execute(request.partition));
            return line;
        }
        case Request::Kind::kFeedback:
            response.kind = Response::Kind::kFeedback;
            response.feedback = engine.execute_feedback(request.feedback);
            break;
        }
        return response.encode();
    } catch (...) {
        // A ServiceError keeps its code; anything untyped from the
        // engine is a server-side fault.
        return current_error(ErrorCode::kInternal).encode();
    }
}

std::string handle_line(RequestEngine& engine, std::string_view line) {
    Request request;
    try {
        request = Request::decode(line);
    } catch (...) {
        // The client sent a line this revision cannot parse.
        return current_error(ErrorCode::kBadRequest).encode();
    }
    return handle_request(engine, request);
}

std::uint64_t request_fingerprint(const Request& request) {
    return fnv1a(request.encode());
}

Response expect_reply(Response response, Response::Kind expected) {
    if (response.kind == Response::Kind::kError) {
        // Preserve the typed classification for callers that catch
        // ServiceError.
        throw ServiceError(response.error_code,
                           "server error: " + response.error);
    }
    FPM_CHECK(response.kind == expected,
              "unexpected reply: " + response.encode());
    return response;
}

PartitionReply parse_partition_reply(std::string_view reply) {
    return expect_reply(Response::decode(reply), Response::Kind::kPartition)
        .partition;
}

} // namespace fpm::serve
