// The reference side of every check, and the replay of the traced pass.
#include <future>

#include "bench.hpp"
#include "fpm/obs/metrics.hpp"
#include "fpm/part/column2d.hpp"
#include "fpm/part/fpm_partitioner.hpp"
#include "fpm/part/integer.hpp"

namespace perfbench {

namespace {

using fpm::serve::PartitionRequest;
using fpm::serve::Request;
using fpm::serve::Response;

fpm::obs::Histogram& queue_wait_histogram() {
    static auto& histogram = fpm::obs::MetricsRegistry::global().histogram(
        "rt.pool.queue_wait_seconds");
    return histogram;
}

} // namespace

Shadow::Shadow(const Workload& workload, const std::vector<ModelSetSpec>& sets,
               const std::string& store_dir, Tracer* tracer)
    : tracer_(tracer) {
    if (!store_dir.empty()) {
        // Auto-snapshots off: the observer below takes them at the same
        // cadence, under the registry mutex like the built-in policy,
        // so each gets its own span.
        auto options = store_options();
        const std::uint64_t every = options.snapshot_every;
        options.snapshot_every = 0;
        store_ = std::make_unique<fpm::store::ModelStore>(store_dir, options);
        store_->attach(registry_);
        registry_.set_put_observer([this, every](
                                       const fpm::serve::ModelSet& set) {
            Tracer::Scope append(tracer_, "store.append", observer_parent_,
                                 observer_request_);
            store_->append(set);
            if (++appends_ % every == 0) {
                Tracer::Scope snapshot(tracer_, "store.snapshot", append.id(),
                                       observer_request_);
                store_->snapshot();
            }
        });
    }
    for (const auto& set : sets) {
        registry_.put(set.name, set.models);
    }
    engine_ = std::make_unique<fpm::serve::RequestEngine>(
        registry_, fpm::serve::RequestEngine::Options{});
    if (workload.kind == WorkloadKind::kPublishReplicate) {
        adapter_ = std::make_unique<fpm::adapt::AdaptEngine>(
            *engine_, fpm::adapt::AdaptConfig{});
    }
}

Shadow::~Shadow() {
    adapter_.reset();
    engine_.reset();
    if (store_) {
        store_->stop();
    }
}

void Shadow::warm(const PartitionRequest& key) {
    if (!engine_->try_execute_cached(key)) {
        (void)engine_->execute(key);
    }
}

std::string Shadow::step(const Stream& stream, std::size_t i,
                         std::uint32_t request, std::int32_t root) {
    const std::int32_t item = stream.item[i];
    if (item >= 0) {
        {
            Tracer::Scope decode(tracer_, "serve.protocol.decode", root,
                                 request);
            (void)Request::decode(stream.lines[i]);
        }
        return partition_step(stream.keys[static_cast<std::size_t>(item)],
                              request, root);
    }
    const auto& sample = stream.samples[static_cast<std::size_t>(-1 - item)];
    Response response;
    response.kind = Response::Kind::kFeedback;
    {
        Tracer::Scope feedback(tracer_, "adapt.feedback", root, request);
        observer_parent_ = feedback.id();
        observer_request_ = request;
        response.feedback = engine_->execute_feedback(sample);
    }
    return response.encode();
}

std::string Shadow::partition_step(const PartitionRequest& key,
                                   std::uint32_t request, std::int32_t root) {
    const auto set = registry_.get(key.model_set);
    if (tracer_ != nullptr) {
        // The reactor's path: probe the cache, and on a miss hop to the
        // pool, which computes and fills the cache.
        std::optional<fpm::serve::PartitionResponse> hit;
        {
            Tracer::Scope probe(tracer_, "serve.cache.probe", root, request);
            hit = engine_->try_execute_cached(key);
        }
        if (!hit) {
            const auto waits = queue_wait_histogram().snapshot();
            std::promise<fpm::serve::RequestEngine::AsyncResult> done;
            auto result = done.get_future();
            const auto start = Clock::now();
            engine_->submit_async(
                key, [&done](fpm::serve::RequestEngine::AsyncResult outcome) {
                    done.set_value(std::move(outcome));
                });
            const auto outcome = result.get();
            const auto end = Clock::now();
            FPM_CHECK(outcome.ok(), "replayed compute failed: " + outcome.error);
            const auto hop = tracer_->add("rt.pool.hop", start, end, root,
                                          request);
            const auto execute = tracer_->add("serve.engine.execute",
                         end - std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       outcome.response.latency_seconds)),
                         end, hop, request);
            const auto after = queue_wait_histogram().snapshot();
            counts_.queue_wait_count += after.count - waits.count;
            counts_.queue_wait_sum += after.sum - waits.sum;

            // The same pipeline as RequestEngine::compute_plan, one
            // layer call at a time, as children of the execute span.
            const std::int64_t n = key.n;
            fpm::part::FpmPartitionResult continuous;
            {
                Tracer::Scope span(tracer_, "part.bisection", execute, request);
                continuous = fpm::part::partition_fpm(
                    set->models, static_cast<double>(n) * static_cast<double>(n));
            }
            ++counts_.bisection_calls;
            counts_.bisection_iterations += continuous.iterations;
            fpm::part::IntPartition1D rounded;
            {
                Tracer::Scope span(tracer_, "part.rounding", execute, request);
                rounded = fpm::part::round_partition(continuous.partition,
                                                     n * n, set->models);
            }
            {
                Tracer::Scope span(tracer_, "part.layout", execute, request);
                (void)fpm::part::column_partition(n, rounded.blocks);
            }
            FPM_CHECK(rounded.blocks == outcome.response.plan->blocks,
                      "replayed layer calls disagree with the engine");
        }
    }

    auto [it, inserted] = memo_.try_emplace(
        {key.model_set, set->generation, key.n});
    Expected& expected = it->second;
    if (inserted) {
        fpm::serve::PartitionResponse served;
        served.plan = std::make_shared<const fpm::serve::PartitionPlan>(
            fpm::serve::RequestEngine::compute_plan(*set, key.n, key.algorithm,
                                                    key.with_layout));
        expected.response.kind = Response::Kind::kPartition;
        expected.response.partition = make_partition_reply(key, served);
        expected.line = expected.response.encode();
    }
    if (tracer_ != nullptr) {
        Tracer::Scope encode(tracer_, "serve.protocol.encode", root, request);
        return expected.response.encode();
    }
    return expected.line;
}

} // namespace perfbench
