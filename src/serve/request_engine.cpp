#include "fpm/serve/request_engine.hpp"

#include <algorithm>
#include <chrono>

#include "fpm/common/error.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/measure/timer.hpp"
#include "fpm/obs/trace.hpp"
#include "fpm/part/request.hpp"

namespace fpm::serve {

namespace {

/// FNV-1a of a set *name* — the stale-plan cache key hash, deliberately
/// independent of model content so it survives reloads.
std::uint64_t hash_name(const std::string& name) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const char ch : name) {
        h ^= static_cast<unsigned char>(ch);
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace

RequestEngine::RequestEngine(ModelRegistry& registry, Options options)
    : registry_(registry),
      options_(options),
      cache_(options.cache_capacity,
             options.cache_shards == 0 ? 1 : options.cache_shards),
      stale_(options.cache_capacity),  // name-keyed, engine-lock guarded:
                                       // striping would buy nothing
      pool_(options.workers) {}

RequestEngine::RequestEngine(ModelRegistry& registry)
    : RequestEngine(registry, Options{}) {}

PartitionPlan RequestEngine::compute_plan(const ModelSet& set, std::int64_t n,
                                          Algorithm algorithm, bool with_layout) {
    obs::Span span("serve.compute", static_cast<std::uint64_t>(n));
    part::PartitionRequest request;
    request.models = set.models;
    request.n = n;
    request.algorithm = algorithm;
    request.with_layout = with_layout;

    PartitionPlan plan;
    static_cast<part::PartitionPlan&>(plan) = part::partition(request);
    plan.key = PlanKey{set.fingerprint, n, algorithm, with_layout};
    plan.generation = set.generation;
    return plan;
}

PartitionResponse RequestEngine::finish(double latency, Algorithm algorithm,
                                        std::shared_ptr<const PartitionPlan> plan,
                                        bool cache_hit, bool coalesced,
                                        bool degraded) {
    latency_histograms_[static_cast<std::size_t>(algorithm)].record(latency);
    return PartitionResponse{std::move(plan), cache_hit, coalesced, degraded,
                             latency};
}

PlanKey RequestEngine::stale_key(const PartitionRequest& request) {
    return PlanKey{hash_name(request.model_set), request.n, request.algorithm,
                   request.with_layout};
}

std::optional<PartitionResponse>
RequestEngine::degrade(const PartitionRequest& request, const ModelSet* set,
                       double elapsed_seconds) {
    std::shared_ptr<const PartitionPlan> plan;
    {
        std::lock_guard lock(inflight_mutex_);
        plan = stale_.get(stale_key(request));
    }
    if (!plan && set != nullptr) {
        // Constant-performance fallback: an even split needs no model
        // quality, only the device count.  Computed directly (no cache,
        // no dedup, no injection point) so it cannot fail the same way
        // the primary path just did.
        try {
            plan = std::make_shared<const PartitionPlan>(
                compute_plan(*set, request.n, Algorithm::kEven,
                             request.with_layout));
        } catch (...) {
            plan = nullptr;  // infeasible workload: nothing to serve
        }
    }
    if (!plan) {
        return std::nullopt;
    }
    degraded_.add();
    return finish(elapsed_seconds, request.algorithm, std::move(plan), false,
                  false, true);
}

PartitionResponse RequestEngine::execute(const PartitionRequest& request) {
    obs::Span span("serve.execute", static_cast<std::uint64_t>(request.n));
    requests_.add();
    measure::WallTimer timer;
    FPM_CHECK(request.n > 0, "workload size must be positive");
    const auto set = registry_.find(request.model_set);
    if (!set) {
        if (auto fallback = degrade(request, nullptr, timer.elapsed())) {
            return *std::move(fallback);
        }
        // Caller mistake, not a server fault: `ERR bad_request ...`.
        throw ServiceError(ErrorCode::kBadRequest,
                           "unknown model set: " + request.model_set);
    }
    const PlanKey key{set->fingerprint, request.n, request.algorithm,
                      request.with_layout};

    // Single-flight: the cache lookup and the leader election happen
    // under one lock, so each request counts exactly one cache lookup
    // and at most one compute runs per key (a finishing leader caches
    // *before* erasing its in-flight entry, making the lookup here
    // conclusive).
    std::shared_ptr<InFlight> flight;
    bool leader = false;
    {
        std::lock_guard lock(inflight_mutex_);
        if (auto plan = cache_.get(key)) {
            return finish(timer.elapsed(), request.algorithm, std::move(plan),
                          true, false);
        }
        if (const auto it = inflight_.find(key); it != inflight_.end()) {
            flight = it->second;
        } else {
            flight = std::make_shared<InFlight>();
            flight->future = flight->promise.get_future().share();
            inflight_[key] = flight;
            leader = true;
        }
    }

    if (!leader) {
        if (options_.coalesce_deadline > 0.0) {
            const auto deadline = std::chrono::duration<double>(
                options_.coalesce_deadline);
            if (flight->future.wait_for(deadline) ==
                std::future_status::timeout) {
                // The leader is stuck (or fault-delayed); answer degraded
                // rather than stall the caller.  Without a degraded
                // answer we fall through and wait it out as before.
                if (auto fallback =
                        degrade(request, set.get(), timer.elapsed())) {
                    return *std::move(fallback);
                }
            }
        }
        std::shared_ptr<const PartitionPlan> plan;
        try {
            plan = flight->future.get();  // rethrows the leader's failure
        } catch (...) {
            if (auto fallback = degrade(request, set.get(), timer.elapsed())) {
                return *std::move(fallback);
            }
            throw;
        }
        coalesced_.add();
        return finish(timer.elapsed(), request.algorithm, std::move(plan),
                      false, true);
    }

    try {
        static auto& compute_fault = fault::point("serve.compute");
        if (compute_fault.fire()) {
            throw Error("injected fault: serve.compute");
        }
        auto plan = std::make_shared<const PartitionPlan>(compute_plan(
            *set, request.n, request.algorithm, request.with_layout));
        cache_.put(key, plan);
        {
            std::lock_guard lock(inflight_mutex_);
            inflight_.erase(key);
            stale_.put(stale_key(request), plan);
        }
        flight->promise.set_value(plan);
        computed_.add();
        return finish(timer.elapsed(), request.algorithm, std::move(plan),
                      false, false);
    } catch (...) {
        {
            std::lock_guard lock(inflight_mutex_);
            inflight_.erase(key);
        }
        flight->promise.set_exception(std::current_exception());
        if (auto fallback = degrade(request, set.get(), timer.elapsed())) {
            return *std::move(fallback);
        }
        throw;
    }
}

std::future<PartitionResponse>
RequestEngine::submit(const PartitionRequest& request) {
    return pool_.submit([this, request]() { return execute(request); });
}

std::optional<PartitionResponse>
RequestEngine::try_execute_cached(const PartitionRequest& request) {
    if (request.n <= 0) {
        return std::nullopt;  // execute() owns the error report
    }
    measure::WallTimer timer;
    std::shared_ptr<const ModelSet> set;
    try {
        set = registry_.get(request.model_set);
    } catch (...) {
        return std::nullopt;  // unknown set: same
    }
    const PlanKey key{set->fingerprint, request.n, request.algorithm,
                      request.with_layout};
    // No inflight_mutex_ here: the cache is internally synchronized (per
    // stripe), plans are immutable, and a racing miss simply falls back
    // to execute()'s conclusive locked lookup.  This is what lets N
    // reactors run their fast paths without serializing on the engine.
    std::shared_ptr<const PartitionPlan> plan = cache_.probe(key);
    if (!plan) {
        return std::nullopt;
    }
    requests_.add();
    return finish(timer.elapsed(), request.algorithm, std::move(plan), true,
                  false);
}

void RequestEngine::submit_async(const PartitionRequest& request,
                                 std::function<void(AsyncResult)> done) {
    (void)pool_.submit([this, request, done = std::move(done)]() {
        AsyncResult result;
        try {
            result.response = execute(request);
        } catch (const ServiceError& e) {
            result.error = e.what();
            result.code = e.code();
            if (result.error.empty()) {
                result.error = "partition failed";
            }
        } catch (const std::exception& e) {
            result.error = e.what();
            if (result.error.empty()) {
                result.error = "partition failed";
            }
        } catch (...) {
            result.error = "partition failed";
        }
        done(std::move(result));
    });
}

void RequestEngine::set_feedback_handler(FeedbackHandler handler) {
    std::lock_guard lock(feedback_mutex_);
    if (handler) {
        feedback_ = std::make_shared<const FeedbackHandler>(std::move(handler));
    } else {
        feedback_.reset();
    }
}

bool RequestEngine::feedback_enabled() const {
    std::lock_guard lock(feedback_mutex_);
    return feedback_ != nullptr;
}

FeedbackReply RequestEngine::execute_feedback(const FeedbackSample& sample) {
    if (read_only()) {
        throw ServiceError(ErrorCode::kReadOnly,
                           "replica is read-only: FEEDBACK rejected");
    }
    std::shared_ptr<const FeedbackHandler> handler;
    {
        std::lock_guard lock(feedback_mutex_);
        handler = feedback_;
    }
    if (handler == nullptr) {
        throw ServiceError(ErrorCode::kFeedbackDisabled,
                           "feedback not enabled");
    }
    return (*handler)(sample);
}

void RequestEngine::submit_feedback_async(
    const FeedbackSample& sample,
    std::function<void(FeedbackAsyncResult)> done) {
    (void)pool_.submit([this, sample, done = std::move(done)]() {
        FeedbackAsyncResult result;
        try {
            result.reply = execute_feedback(sample);
        } catch (const ServiceError& e) {
            result.error = e.what();
            result.code = e.code();
            if (result.error.empty()) {
                result.error = "feedback failed";
            }
        } catch (const std::exception& e) {
            result.error = e.what();
            if (result.error.empty()) {
                result.error = "feedback failed";
            }
        } catch (...) {
            result.error = "feedback failed";
        }
        done(std::move(result));
    });
}

void RequestEngine::invalidate_model(const std::string& name,
                                     std::uint64_t old_fingerprint) {
    cache_.erase_fingerprint(old_fingerprint);
    // The stale-plan cache keys on the name hash precisely so entries
    // survive reloads; a deliberate republish is the one event that must
    // drop them (the old content is now known-wrong, not just missing).
    std::lock_guard lock(inflight_mutex_);
    stale_.erase_fingerprint(hash_name(name));
}

void RequestEngine::set_repl_source(const std::string& source) {
    std::lock_guard lock(repl_mutex_);
    repl_source_ = source;
}

void RequestEngine::record_repl_contact(std::uint64_t committed_generation,
                                        std::uint64_t applied_generation) {
    std::lock_guard lock(repl_mutex_);
    repl_committed_ = committed_generation;
    repl_applied_ = applied_generation;
    repl_contact_ = std::chrono::steady_clock::now();
}

void RequestEngine::record_repl_applied(std::uint64_t applied_generation) {
    std::lock_guard lock(repl_mutex_);
    repl_applied_ = applied_generation;
    repl_committed_ = std::max(repl_committed_, applied_generation);
}

EngineStats RequestEngine::stats() const {
    EngineStats stats;
    stats.requests = requests_.value();
    stats.computed = computed_.value();
    stats.coalesced = coalesced_.value();
    stats.degraded = degraded_.value();
    for (std::size_t i = 0; i < kAlgorithmCount; ++i) {
        stats.latency_by_algorithm[i] = latency_histograms_[i].snapshot();
    }
    stats.cache = cache_.stats();
    stats.cache_shards = cache_.shard_count();
    stats.cache_by_shard = cache_.shard_stats();

    std::lock_guard lock(repl_mutex_);
    if (!repl_source_.empty()) {
        stats.role = "replica";
        stats.repl_source = repl_source_;
    }
    stats.repl_lag_frames =
        repl_committed_ > repl_applied_ ? repl_committed_ - repl_applied_ : 0;
    stats.repl_applied_generation = repl_applied_;
    if (repl_contact_) {
        stats.repl_lag_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          *repl_contact_)
                .count();
    }
    return stats;
}

} // namespace fpm::serve
