/// \file request_engine.hpp
/// \brief Concurrent execution of partition requests.
///
/// The engine is the service's compute heart: it resolves a request's
/// model set against the registry, consults the partition cache, and
/// otherwise runs the full library pipeline (1-D partitioner → integer
/// rounding → column 2-D layout) on an fpm::rt thread pool.
///
/// Identical requests that arrive while one of them is still computing
/// are *coalesced* (single-flight dedup): exactly one computation runs
/// and every waiter shares its result — the micro-batching the service
/// needs when a burst of clients asks for the same partition.  Per
/// request the engine records wall-clock latency into one histogram per
/// algorithm; those and the engine's own counters (all wait-free obs
/// instruments, kept per engine) are surfaced through stats() and the
/// STATS wire command.
///
/// The engine keeps serving through disturbances instead of failing
/// hard: a request whose model set vanished, whose compute failed (e.g.
/// a serve.compute fault injection), or whose coalesced leader blew
/// Options::coalesce_deadline is answered from the *stale-plan cache* —
/// the last plan computed for the same (set name, n, algorithm, layout),
/// surviving reloads that change the content fingerprint — or, failing
/// that, from a constant-performance fallback (Algorithm::kEven even
/// split), which needs no model quality at all.  Degraded responses are
/// flagged (`PartitionResponse::degraded`, wire `degraded=1`) and
/// counted in EngineStats::degraded.
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
#include <future>
#include <map>
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
    bool coalesced = false;   ///< shared an identical in-flight computation
    bool degraded = false;    ///< stale or constant-model fallback answer
    double latency_seconds = 0.0;
};

/// Aggregate engine counters.
struct EngineStats {
    std::uint64_t requests = 0;
    std::uint64_t computed = 0;   ///< full pipeline executions
    std::uint64_t coalesced = 0;  ///< requests served by single-flight dedup
    std::uint64_t degraded = 0;   ///< stale/fallback answers served
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
        unsigned workers = 4;             ///< thread-pool size for submit()
        std::size_t cache_capacity = 1024;
        /// Lock stripes of the plan cache (rounded up to a power of two;
        /// 0 is treated as 1).  Raise alongside ServeConfig::num_reactors
        /// so concurrent cache probes from N reactors do not serialize on
        /// one mutex; 1 keeps the exact single-LRU semantics.
        std::size_t cache_shards = 1;
        /// Seconds a coalesced waiter waits for its leader before
        /// degrading (<= 0: wait forever, prior behaviour).
        double coalesce_deadline = 0.0;
    };

    /// The registry must outlive the engine.
    RequestEngine(ModelRegistry& registry, Options options);
    explicit RequestEngine(ModelRegistry& registry);  ///< default Options

    /// Runs the request on the calling thread (cache → dedup → compute).
    /// Throws fpm::Error for unknown model sets, n <= 0 or infeasible
    /// workloads; coalesced waiters rethrow the leader's exception.
    PartitionResponse execute(const PartitionRequest& request);

    /// Schedules execute() on the engine's thread pool.
    std::future<PartitionResponse> submit(const PartitionRequest& request);

    /// Outcome of an asynchronous execution: exactly one of response
    /// (when `error` is empty) or `error` (a client-safe message, with
    /// `code` its wire classification) is meaningful.
    struct AsyncResult {
        PartitionResponse response;
        std::string error;
        ErrorCode code = ErrorCode::kInternal;  ///< meaningful iff !ok()
        [[nodiscard]] bool ok() const noexcept { return error.empty(); }
    };

    /// Schedules execute() on the pool and invokes `done` with the
    /// outcome from the worker thread — failures arrive as
    /// AsyncResult::error instead of a thrown exception, so callers that
    /// cannot rethrow across threads (the serve reactor's event loop)
    /// get a complete result either way.  `done` must be callable after
    /// the caller has gone away if the caller can be destroyed before
    /// the engine drains (capture shared state by shared_ptr).
    void submit_async(const PartitionRequest& request,
                      std::function<void(AsyncResult)> done);

    /// Cache-hit fast path: answers from the plan cache without touching
    /// the thread pool, or returns nullopt when the request would need a
    /// compute (cache miss, unknown model set, invalid n) — callers fall
    /// back to submit_async() and the pool reports any error.  Counts
    /// exactly like execute()'s hit path, so STATS cannot tell the two
    /// apart.  The serve reactor probes this before paying the
    /// worker-thread round trip.
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

    /// Outcome of an asynchronous feedback execution, mirroring
    /// AsyncResult: exactly one of `reply` or `error` is meaningful.
    struct FeedbackAsyncResult {
        FeedbackReply reply;
        std::string error;
        ErrorCode code = ErrorCode::kInternal;  ///< meaningful iff !ok()
        [[nodiscard]] bool ok() const noexcept { return error.empty(); }
    };

    /// Schedules execute_feedback() on the engine's thread pool — the
    /// off-hot-path routing the reactor uses, so ingest/refine/publish
    /// work never runs on the event loop.  Same lifetime rules as
    /// submit_async().
    void submit_feedback_async(const FeedbackSample& sample,
                               std::function<void(FeedbackAsyncResult)> done);

    /// Invalidates every cached answer derived from the previous content
    /// of model set `name`: plan-cache entries keyed on
    /// `old_fingerprint` *and* the name-keyed stale-plan entries (which
    /// survive reloads by design and therefore need an explicit drop on
    /// republish).  Called by the model publisher after a hot republish.
    void invalidate_model(const std::string& name,
                          std::uint64_t old_fingerprint);

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
    /// pipeline on a model-set snapshot, bypassing registry, cache and
    /// dedup.  Exposed so tests and benches can compare answers
    /// bit-for-bit.
    [[nodiscard]] static PartitionPlan
    compute_plan(const ModelSet& set, std::int64_t n, Algorithm algorithm,
                 bool with_layout);

private:
    struct InFlight {
        std::promise<std::shared_ptr<const PartitionPlan>> promise;
        std::shared_future<std::shared_ptr<const PartitionPlan>> future;
    };

    PartitionResponse finish(double latency, Algorithm algorithm,
                             std::shared_ptr<const PartitionPlan> plan,
                             bool cache_hit, bool coalesced,
                             bool degraded = false);

    /// Stale-plan cache key: hashes the *set name* (not the content
    /// fingerprint), so the entry survives reloads and outages.
    [[nodiscard]] static PlanKey stale_key(const PartitionRequest& request);

    /// Degraded answer for `request`: stale plan first, else an even
    /// split over `set` (pass nullptr when no snapshot is available —
    /// then only the stale path can serve).  nullopt when neither can;
    /// the caller surfaces the original error.
    [[nodiscard]] std::optional<PartitionResponse>
    degrade(const PartitionRequest& request, const ModelSet* set,
            double elapsed_seconds);

    ModelRegistry& registry_;
    Options options_;
    PartitionCache cache_;
    PartitionCache stale_;  ///< name-keyed last-known-good plans
    rt::ThreadPool pool_;

    /// Shared so an in-flight pool task keeps the handler alive across a
    /// concurrent set_feedback_handler(); never touched by the partition
    /// hot path.
    mutable std::mutex feedback_mutex_;
    std::shared_ptr<const FeedbackHandler> feedback_;
    std::atomic<bool> read_only_{false};

    std::mutex inflight_mutex_;
    std::map<PlanKey, std::shared_ptr<InFlight>> inflight_;

    obs::Counter requests_;
    obs::Counter computed_;
    obs::Counter coalesced_;
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
};

} // namespace fpm::serve
