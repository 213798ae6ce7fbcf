/// \file request_engine.hpp
/// \brief Concurrent execution of partition requests.
///
/// The engine is the service's compute heart.  execute() is one straight
/// path: it resolves the request's model set against the registry, looks
/// the plan up in the partition cache, and on a miss runs the full
/// library pipeline (1-D partitioner → integer rounding → column 2-D
/// layout) and caches the result.  It takes no engine-level lock, so the
/// only locks on that path are the registry's and one cache stripe's.
/// Identical misses that run at the same time each compute (plans are
/// deterministic, so they agree bit for bit); through the server every
/// PARTITION runs execute() on the reactor thread that read it, so at
/// most ServeConfig::num_reactors computes of one key overlap, and the
/// pool runs only FEEDBACK and LOAD (post()).  Per request the engine
/// records wall-clock latency into one histogram per algorithm; those and
/// the engine's own counters (all wait-free obs instruments, kept per
/// engine) are surfaced through stats() and the STATS wire command.
///
/// A compute that fails (e.g. a serve.compute fault injection) is
/// answered with the constant-performance fallback, an Algorithm::kEven
/// even split of the request's *current* model set, which needs no model
/// quality at all.  It is flagged (`PartitionResponse::degraded`, wire
/// `degraded=1`), counted in EngineStats::degraded and never cached.
/// When the even split cannot serve either (a workload the devices
/// cannot hold), the original failure reaches the caller.  An unknown
/// model set is the caller's mistake and never degrades.
///
/// A replica's engine also carries its replication status (role, source,
/// lag): the fpm::repl::Replicator feeding its registry records them
/// here, so STATS and HEALTH report the state of the engine that answers
/// them, even with a primary and a replica in one process.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "fpm/obs/metrics.hpp"
#include "fpm/rt/thread_pool.hpp"
#include "fpm/serve/error.hpp"
#include "fpm/serve/model_registry.hpp"
#include "fpm/serve/partition_cache.hpp"

namespace fpm::serve {

/// Number of Algorithm enumerators (indexes the per-algorithm stats).
inline constexpr std::size_t kAlgorithmCount = 3;

/// One partition query, as submitted by a client.
struct PartitionRequest {
    std::string model_set;                      ///< registry name
    std::int64_t n = 0;                         ///< n x n block matrix
    Algorithm algorithm = Algorithm::kFpm;
    bool with_layout = true;
};

/// One served-execution measurement reported back by a client: device
/// `device` of set `model_set` finished a workload of `problem_size`
/// blocks in `seconds`.  The adaptation layer (fpm::adapt) folds these
/// into the speed functions; the engine itself only routes them.
struct FeedbackSample {
    std::string model_set;
    std::int64_t device = 0;
    double problem_size = 0.0;  ///< matrix area in blocks (the FPM's x)
    double seconds = 0.0;       ///< measured wall-clock execution time
};

/// What the adaptation layer did with one sample, echoed to the client.
struct FeedbackReply {
    std::string model_set;
    std::int64_t device = 0;
    std::uint64_t samples = 0;    ///< bucket sample count after ingest
    bool reliable = false;        ///< the bucket met the CI criterion
    bool drift = false;           ///< drift detected on this window
    bool republished = false;     ///< a refined model version was published
    std::uint64_t version = 0;    ///< current registry generation of the set
};

/// The answer plus how it was served.
struct PartitionResponse {
    std::shared_ptr<const PartitionPlan> plan;
    bool cache_hit = false;   ///< served straight from the cache
    bool degraded = false;    ///< even-split fallback after a failed compute
    double latency_seconds = 0.0;
};

/// Aggregate engine counters.
struct EngineStats {
    std::uint64_t requests = 0;
    std::uint64_t computed = 0;   ///< full pipeline executions
    std::uint64_t degraded = 0;   ///< even-split fallback answers served
    /// Per-algorithm request latency (seconds), indexed by
    /// static_cast<std::size_t>(Algorithm); every request lands in exactly
    /// one, so together they hold the all-algorithm count, sum and max.
    std::array<obs::HistogramSnapshot, kAlgorithmCount> latency_by_algorithm{};
    CacheStats cache;
    /// Stripe count of the plan cache (a power of two, >= 1).
    std::size_t cache_shards = 1;
    /// Per-stripe cache counters, indexed by shard; their field-wise sum
    /// equals `cache` (the STATS aggregation invariant the tests assert).
    std::vector<CacheStats> cache_by_shard;

    // -- replication (docs/replication.md §3; defaults on a primary) ----
    std::string role = "primary";        ///< "replica" once a source is set
    std::string repl_source = "-";       ///< replica: upstream host:port
    std::uint64_t repl_lag_frames = 0;   ///< committed minus applied gen
    double repl_lag_seconds = 0.0;       ///< seconds since the last contact
    std::uint64_t repl_applied_generation = 0;  ///< last applied gen
};

/// See file comment.
class RequestEngine {
public:
    struct Options {
        unsigned workers = 4;  ///< pool size: FEEDBACK, LOAD, submit_async()
        std::size_t cache_capacity = 1024;
        /// Lock stripes of the plan cache (rounded up to a power of two;
        /// 0 is treated as 1).  Raise alongside ServeConfig::num_reactors
        /// so concurrent cache probes from N reactors do not serialize on
        /// one mutex; 1 keeps the exact single-LRU semantics.
        std::size_t cache_shards = 1;
    };

    /// The registry must outlive the engine.
    RequestEngine(ModelRegistry& registry, Options options);
    explicit RequestEngine(ModelRegistry& registry);  ///< default Options

    /// Runs the request on the calling thread (cache → compute).
    /// Throws fpm::Error for unknown model sets, n <= 0 or infeasible
    /// workloads.
    PartitionResponse execute(const PartitionRequest& request);

    /// Outcome of an asynchronous execution: exactly one of response
    /// (when `error` is empty) or `error` (the failure's message, with
    /// `code` its wire classification; see current_error()) is
    /// meaningful.
    struct AsyncResult {
        PartitionResponse response;
        std::string error;
        ErrorCode code = ErrorCode::kInternal;  ///< meaningful iff !ok()
        [[nodiscard]] bool ok() const noexcept { return error.empty(); }
    };

    /// Schedules execute() on the pool and invokes `done` with the
    /// outcome from the worker thread — failures arrive as
    /// AsyncResult::error instead of a thrown exception, so callers that
    /// cannot rethrow across threads get a complete result either way
    /// (the server runs execute() on its reactors instead).  `done` must
    /// be callable after the caller has gone away if the caller can be
    /// destroyed before the engine drains (capture shared state by
    /// shared_ptr).
    void submit_async(const PartitionRequest& request,
                      std::function<void(AsyncResult)> done);

    /// Cache-hit probe: the cached plan, or nullopt when the request would
    /// need a compute (cache miss, unknown set, invalid n); the caller
    /// then runs execute(), which counts the miss and reports any error.
    /// A hit counts like execute()'s.  The server calls execute() alone;
    /// perfbench's shadow engine calls this.
    [[nodiscard]] std::optional<PartitionResponse>
    try_execute_cached(const PartitionRequest& request);

    /// Handles one feedback sample; installed by the adaptation layer.
    /// Throws to reject the sample (the message travels as `ERR ...`).
    using FeedbackHandler = std::function<FeedbackReply(const FeedbackSample&)>;

    /// Installs (or, with an empty function, removes) the feedback
    /// handler.  The engine never interprets samples itself — without a
    /// handler FEEDBACK answers `ERR feedback not enabled` — so the
    /// serve layer stays free of any dependency on fpm::adapt.  The
    /// handler must stay callable until it is replaced and all in-flight
    /// feedback drains (see ~AdaptEngine).
    void set_feedback_handler(FeedbackHandler handler);

    [[nodiscard]] bool feedback_enabled() const;

    /// Read-only mode (a replica): every write verb — LOAD in
    /// handle_request(), FEEDBACK in execute_feedback() — is answered
    /// with a typed `ERR read_only` instead of mutating the registry.
    /// Reads (PARTITION/STATS/HEALTH/MODELS) are unaffected.
    void set_read_only(bool read_only) noexcept {
        read_only_.store(read_only, std::memory_order_relaxed);
    }
    [[nodiscard]] bool read_only() const noexcept {
        return read_only_.load(std::memory_order_relaxed);
    }

    /// Runs the installed handler on the calling thread.  Throws
    /// fpm::Error when feedback is not enabled or the handler rejects
    /// the sample.
    FeedbackReply execute_feedback(const FeedbackSample& sample);

    /// Runs `task` on the engine's thread pool and returns at once.  The
    /// reactor hands FEEDBACK and LOAD to handle_request() this way, so
    /// ingest/refine/publish (a store append, maybe a snapshot with
    /// fsync) and model-file reads never run on the event loop.  An
    /// exception escaping `task` is dropped, so `task` reports its own
    /// failures; same lifetime rules as submit_async().
    void post(std::function<void()> task);

    /// Drops every cached plan keyed on `old_fingerprint`, the content a
    /// set had before a republish.  Called by the adapt engine after a
    /// hot republish and by the replicator after applying a record.
    void invalidate_model(std::uint64_t old_fingerprint);

    // -- replication status, recorded by the Replicator feeding this
    //    engine (lag semantics in docs/replication.md §3) ---------------

    /// Marks the engine a replica of `source` (host:port).
    void set_repl_source(const std::string& source);

    /// A frame or heartbeat arrived: the primary has committed
    /// `committed_generation`, this replica has applied
    /// `applied_generation`.  Restarts the staleness clock.
    void record_repl_contact(std::uint64_t committed_generation,
                             std::uint64_t applied_generation);

    /// A record was applied locally; the staleness clock is untouched.
    void record_repl_applied(std::uint64_t applied_generation);

    [[nodiscard]] EngineStats stats() const;

    [[nodiscard]] ModelRegistry& registry() noexcept { return registry_; }

    /// The direct library call the service must agree with: runs the full
    /// pipeline on a model-set snapshot, bypassing registry and cache, and
    /// stores the plan's encoded reply fields (PartitionPlan::reply_fields),
    /// the only place a served plan is made.  Exposed so tests and benches
    /// can compare answers bit-for-bit.
    [[nodiscard]] static PartitionPlan
    compute_plan(const ModelSet& set, std::int64_t n, Algorithm algorithm,
                 bool with_layout);

private:
    PartitionResponse finish(double latency, Algorithm algorithm,
                             std::shared_ptr<const PartitionPlan> plan,
                             bool cache_hit, bool degraded = false);

    ModelRegistry& registry_;
    PartitionCache cache_;

    /// Shared so an in-flight pool task keeps the handler alive across a
    /// concurrent set_feedback_handler(); never touched by the partition
    /// hot path.
    mutable std::mutex feedback_mutex_;
    std::shared_ptr<const FeedbackHandler> feedback_;
    std::atomic<bool> read_only_{false};

    obs::Counter requests_;
    obs::Counter computed_;
    obs::Counter degraded_;
    /// Lock-free per-algorithm latency; indexed like
    /// EngineStats::latency_by_algorithm.
    std::array<obs::Histogram, kAlgorithmCount> latency_histograms_;

    /// Replication status; written by the replication thread, read by
    /// stats(), never touched by the partition hot path.
    mutable std::mutex repl_mutex_;
    std::string repl_source_;  ///< empty: not a replica
    std::uint64_t repl_committed_ = 0;
    std::uint64_t repl_applied_ = 0;
    std::optional<std::chrono::steady_clock::time_point> repl_contact_;

    /// Declared last, so destroyed first: its destructor runs the tasks
    /// still queued and joins the workers while every member they touch
    /// is alive.
    rt::ThreadPool pool_;
};

} // namespace fpm::serve
