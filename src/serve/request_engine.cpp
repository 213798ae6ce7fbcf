#include "fpm/serve/request_engine.hpp"

#include <algorithm>
#include <chrono>

#include "fpm/common/error.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/measure/timer.hpp"
#include "fpm/obs/trace.hpp"
#include "fpm/part/request.hpp"
#include "fpm/serve/protocol.hpp"

namespace fpm::serve {

namespace {

/// The even split a failed compute falls back to, or nullptr when the
/// devices cannot hold the workload even so.  Computed directly (no
/// cache, no injection point), so it cannot fail the way the compute
/// just did.
std::shared_ptr<const PartitionPlan> even_split(const ModelSet& set,
                                                const PartitionRequest& request) {
    try {
        return std::make_shared<const PartitionPlan>(RequestEngine::compute_plan(
            set, request.n, Algorithm::kEven, request.with_layout));
    } catch (...) {
        return nullptr;
    }
}

} // namespace

RequestEngine::RequestEngine(ModelRegistry& registry, Options options)
    : registry_(registry),
      cache_(options.cache_capacity,
             options.cache_shards == 0 ? 1 : options.cache_shards),
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
    // Encoded once here, so a hit and the miss that computed the plan
    // both answer with a copy; sized to fit, since the cache keeps it.
    append_partition_fields(
        plan.reply_fields, plan.balanced_time, plan.makespan, plan.comm_cost,
        plan.blocks,
        with_layout ? std::span<const part::Rect>(plan.layout.rects)
                    : std::span<const part::Rect>());
    plan.reply_fields.shrink_to_fit();
    return plan;
}

PartitionResponse RequestEngine::finish(double latency, Algorithm algorithm,
                                        std::shared_ptr<const PartitionPlan> plan,
                                        bool cache_hit, bool degraded) {
    latency_histograms_[static_cast<std::size_t>(algorithm)].record(latency);
    return PartitionResponse{std::move(plan), cache_hit, degraded, latency};
}

PartitionResponse RequestEngine::execute(const PartitionRequest& request) {
    obs::Span span("serve.execute", static_cast<std::uint64_t>(request.n));
    requests_.add();
    measure::WallTimer timer;
    FPM_CHECK(request.n > 0, "workload size must be positive");
    const auto set = registry_.find(request.model_set);
    if (!set) {
        // Caller mistake, not a server fault: `ERR bad_request ...`.
        throw ServiceError(ErrorCode::kBadRequest,
                           "unknown model set: " + request.model_set);
    }
    const PlanKey key{set->fingerprint, request.n, request.algorithm,
                      request.with_layout};
    if (auto plan = cache_.get(key)) {
        return finish(timer.elapsed(), request.algorithm, std::move(plan),
                      true);
    }

    std::shared_ptr<const PartitionPlan> plan;
    try {
        static auto& compute_fault = fault::point("serve.compute");
        if (compute_fault.fire()) {
            throw Error("injected fault: serve.compute");
        }
        plan = std::make_shared<const PartitionPlan>(compute_plan(
            *set, request.n, request.algorithm, request.with_layout));
    } catch (...) {
        plan = even_split(*set, request);
        if (plan == nullptr) {
            throw;
        }
        degraded_.add();
        return finish(timer.elapsed(), request.algorithm, std::move(plan),
                      false, true);
    }
    cache_.put(key, plan);
    computed_.add();
    return finish(timer.elapsed(), request.algorithm, std::move(plan), false);
}

std::optional<PartitionResponse>
RequestEngine::try_execute_cached(const PartitionRequest& request) {
    if (request.n <= 0) {
        return std::nullopt;  // execute() owns the error report
    }
    measure::WallTimer timer;
    const std::shared_ptr<const ModelSet> set = registry_.find(request.model_set);
    if (set == nullptr) {
        return std::nullopt;  // unknown set: same
    }
    const PlanKey key{set->fingerprint, request.n, request.algorithm,
                      request.with_layout};
    // The cache locks per stripe and plans are immutable, so N reactors
    // run their fast paths without serializing on the engine; a miss
    // falls back to execute(), whose lookup counts it.
    std::shared_ptr<const PartitionPlan> plan = cache_.probe(key);
    if (!plan) {
        return std::nullopt;
    }
    requests_.add();
    return finish(timer.elapsed(), request.algorithm, std::move(plan), true);
}

void RequestEngine::submit_async(const PartitionRequest& request,
                                 std::function<void(AsyncResult)> done) {
    (void)pool_.submit([this, request, done = std::move(done)]() {
        AsyncResult result;
        try {
            result.response = execute(request);
        } catch (...) {
            Response error = current_error(ErrorCode::kInternal);
            result.error = std::move(error.error);
            result.code = error.error_code;
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

void RequestEngine::post(std::function<void()> task) {
    (void)pool_.submit(std::move(task));
}

void RequestEngine::invalidate_model(std::uint64_t old_fingerprint) {
    cache_.erase_fingerprint(old_fingerprint);
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
