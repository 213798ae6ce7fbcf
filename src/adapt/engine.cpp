#include "fpm/adapt/engine.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "fpm/adapt/drift.hpp"
#include "fpm/adapt/feedback.hpp"
#include "fpm/adapt/refiner.hpp"
#include "fpm/common/error.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/obs/metrics.hpp"

namespace fpm::adapt {

namespace {

/// Process-global adaptation instruments.  protocol.cpp reads these by
/// name for the STATS reply, which keeps fpm::serve free of any adapt
/// dependency (adapt links serve, never the reverse).
struct AdaptMetrics {
    obs::Counter& samples;
    obs::Counter& reliable;
    obs::Counter& drift;
    obs::Counter& republished;
    obs::Gauge& model_version;

    static AdaptMetrics& instance() {
        static auto& registry = obs::MetricsRegistry::global();
        static AdaptMetrics metrics{
            registry.counter("adapt.samples"),
            registry.counter("adapt.reliable"),
            registry.counter("adapt.drift"),
            registry.counter("adapt.republished"),
            registry.gauge("adapt.model_version"),
        };
        return metrics;
    }
};

} // namespace

/// All mutable adaptation state.  Shared (not owned) with the feedback
/// handler closure so in-flight ingests survive ~AdaptEngine.
struct AdaptEngine::Impl {
    /// Working state for one model set.
    struct SetState {
        /// Fingerprint of the registry snapshot `working` was copied
        /// from; a mismatch on ingest means an external reload happened
        /// and all evidence is stale.
        std::uint64_t synced_fingerprint = 0;
        std::vector<core::SpeedFunction> working;
        FeedbackIngestor ingestor;
        DriftDetector drift;
        /// True once a refinement was applied but not yet published.
        bool dirty = false;

        explicit SetState(const AdaptConfig& config)
            : ingestor(config), drift(config) {}
    };

    Impl(serve::RequestEngine& request_engine, const AdaptConfig& cfg)
        : engine(request_engine), config(cfg), refiner(cfg) {}

    serve::FeedbackReply ingest(const serve::FeedbackSample& sample);

    serve::RequestEngine& engine;
    AdaptConfig config;
    OnlineRefiner refiner;

    mutable std::mutex mutex;
    std::map<std::string, SetState> sets;
    std::uint64_t refined = 0;
    std::uint64_t resyncs = 0;
};

serve::FeedbackReply
AdaptEngine::Impl::ingest(const serve::FeedbackSample& sample) {
    static auto& ingest_fault = fault::point("adapt.ingest");
    if (ingest_fault.fire()) {
        throw Error("injected fault: adapt.ingest");
    }
    FPM_CHECK(!sample.model_set.empty(), "model set name must not be empty");
    FPM_CHECK(sample.device >= 0, "device index must be non-negative");
    FPM_CHECK(std::isfinite(sample.problem_size) && sample.problem_size > 0.0,
              "problem size must be positive and finite");
    FPM_CHECK(std::isfinite(sample.seconds) && sample.seconds > 0.0,
              "measured time must be positive and finite");

    // The snapshot is read under the lock (adapt before registry, the
    // order put() below takes too): read before it, a concurrent
    // ingest's republish would look like an external reload and wipe
    // the set's evidence.
    std::lock_guard<std::mutex> lock(mutex);
    auto snapshot = engine.registry().get(sample.model_set);
    FPM_CHECK(static_cast<std::size_t>(sample.device) <
                  snapshot->models.size(),
              "device index out of range for set '" + sample.model_set + "'");

    auto& metrics = AdaptMetrics::instance();

    auto [it, inserted] = sets.try_emplace(sample.model_set, config);
    SetState& state = it->second;
    if (inserted || state.synced_fingerprint != snapshot->fingerprint) {
        // External reload (or first contact): the working copy and all
        // accumulated evidence describe content that no longer exists.
        if (!inserted) {
            ++resyncs;
        }
        state.working = snapshot->models;
        state.synced_fingerprint = snapshot->fingerprint;
        state.ingestor.clear();
        state.drift.reset();
        state.dirty = false;
    }

    serve::FeedbackReply reply;
    reply.model_set = sample.model_set;
    reply.device = sample.device;
    reply.version = snapshot->generation;

    const IngestResult ingested =
        state.ingestor.add(sample.device, sample.problem_size, sample.seconds);
    metrics.samples.add();
    reply.samples = ingested.samples;
    if (!ingested.reliable) {
        return reply;
    }

    reply.reliable = true;
    metrics.reliable.add();

    // Refine under the adapt.refine fault *before* consuming the
    // bucket: an injected failure keeps the evidence, so the next
    // sample simply retries the splice (self-healing).
    static auto& refine_fault = fault::point("adapt.refine");
    if (refine_fault.fire()) {
        throw Error("injected fault: adapt.refine");
    }
    const RefineResult refinement =
        refiner.refine(state.working, static_cast<std::size_t>(sample.device),
                       ingested.x, ingested.speed);
    state.ingestor.consume(ingested.key);
    if (refinement.applied) {
        state.dirty = true;
        ++refined;
    }

    // Drift is judged against the *served* snapshot, not the working
    // copy.  Refinements accumulate silently in `working`; the CUSUM's
    // question is whether the plans still being served match the
    // hardware — were it fed the working-model error instead, a splice
    // would zero the error at the operating point and the corrected
    // model could sit unpublished forever.
    const auto& served =
        snapshot->models[static_cast<std::size_t>(sample.device)];
    const double served_speed =
        served.speed(std::min(ingested.x, served.max_problem()));
    const double served_error =
        std::abs(ingested.speed - served_speed) / served_speed;

    const DriftDecision decision =
        state.drift.observe(sample.device, served_error);
    if (decision.drift) {
        reply.drift = true;
        metrics.drift.add();
    }
    if (decision.republish && state.dirty) {
        // The fault fires before the put (write-ahead logged when a store
        // is attached), so an injected failure leaves the registry on the
        // previous version.
        static auto& publish_fault = fault::point("adapt.publish");
        if (publish_fault.fire()) {
            throw Error("injected fault: adapt.publish");
        }
        auto published = engine.registry().put(sample.model_set, state.working);
        engine.invalidate_model(snapshot->fingerprint);
        state.synced_fingerprint = published->fingerprint;
        state.dirty = false;
        state.drift.reset();
        reply.republished = true;
        reply.version = published->generation;
        metrics.republished.add();
        metrics.model_version.set(
            static_cast<std::int64_t>(published->generation));
    }
    return reply;
}

AdaptEngine::AdaptEngine(serve::RequestEngine& engine, AdaptConfig config)
    : engine_(engine), config_(config),
      impl_(std::make_shared<Impl>(engine, config)) {
    engine_.set_feedback_handler(
        [impl = impl_](const serve::FeedbackSample& sample) {
            return impl->ingest(sample);
        });
}

AdaptEngine::~AdaptEngine() { engine_.set_feedback_handler(nullptr); }

serve::FeedbackReply AdaptEngine::ingest(const serve::FeedbackSample& sample) {
    return impl_->ingest(sample);
}

AdaptStats AdaptEngine::stats() const {
    auto& metrics = AdaptMetrics::instance();
    AdaptStats stats;
    stats.samples = metrics.samples.value();
    stats.reliable = metrics.reliable.value();
    stats.drift = metrics.drift.value();
    stats.republished = metrics.republished.value();
    stats.model_version =
        static_cast<std::uint64_t>(metrics.model_version.value());
    std::lock_guard<std::mutex> lock(impl_->mutex);
    stats.refined = impl_->refined;
    stats.resyncs = impl_->resyncs;
    return stats;
}

} // namespace fpm::adapt
