#include "fpm/loadgen/workload.hpp"

#include <cmath>

#include "fpm/common/error.hpp"
#include "fpm/common/hash.hpp"
#include "fpm/common/rng.hpp"

namespace fpm::loadgen {

namespace {

double total_weight(const WorkloadSpec& spec) {
    return spec.partition_weight + spec.stats_weight + spec.health_weight +
           spec.feedback_weight;
}

void validate(const WorkloadSpec& spec) {
    FPM_CHECK(spec.partition_weight >= 0.0 && spec.stats_weight >= 0.0 &&
                  spec.health_weight >= 0.0 && spec.feedback_weight >= 0.0,
              "workload verb weights must be non-negative");
    FPM_CHECK(total_weight(spec) > 0.0,
              "workload needs at least one verb with positive weight");
    FPM_CHECK(spec.n_min >= 1 && spec.n_max >= spec.n_min,
              "workload needs 1 <= n_min <= n_max");
    if (spec.partition_weight > 0.0 || spec.feedback_weight > 0.0) {
        FPM_CHECK(!spec.model_sets.empty(),
                  "workload targets PARTITION/FEEDBACK but names no "
                  "model sets");
    }
    if (spec.feedback_weight > 0.0) {
        FPM_CHECK(spec.feedback_devices >= 1,
                  "workload needs feedback_devices >= 1");
    }
}

} // namespace

const char* verb_name(Verb verb) noexcept {
    switch (verb) {
    case Verb::kPartition: return "partition";
    case Verb::kStats: return "stats";
    case Verb::kHealth: return "health";
    case Verb::kFeedback: return "feedback";
    }
    return "unknown";
}

const char* arrival_name(Arrival arrival) noexcept {
    return arrival == Arrival::kPoisson ? "poisson" : "uniform";
}

serve::Request nth_request(const WorkloadSpec& spec, std::uint64_t index) {
    validate(spec);
    // One private stream per index: identical across threads, runs and
    // loop modes (the determinism the replay tests pin down).  Mixing
    // decorrelates (seed, index) pairs, so neighbouring indices share no
    // structure.
    Rng rng(mix64(spec.seed) ^ mix64(index));

    serve::Request request;
    double pick = rng.uniform() * total_weight(spec);
    if ((pick -= spec.partition_weight) < 0.0) {
        request.kind = serve::Request::Kind::kPartition;
        request.partition.model_set = spec.model_sets[static_cast<std::size_t>(
            rng.uniform_int(0,
                            static_cast<std::int64_t>(spec.model_sets.size()) -
                                1))];
        request.partition.n = rng.uniform_int(spec.n_min, spec.n_max);
        request.partition.algorithm = spec.algorithm;
        request.partition.with_layout = spec.with_layout;
    } else if ((pick -= spec.stats_weight) < 0.0) {
        request.kind = serve::Request::Kind::kStats;
    } else if ((pick -= spec.health_weight) < 0.0) {
        request.kind = serve::Request::Kind::kHealth;
    } else {
        request.kind = serve::Request::Kind::kFeedback;
        request.feedback.model_set = spec.model_sets[static_cast<std::size_t>(
            rng.uniform_int(0,
                            static_cast<std::int64_t>(spec.model_sets.size()) -
                                1))];
        request.feedback.device = rng.uniform_int(0, spec.feedback_devices - 1);
        // Plausible served-execution evidence: a mid-range operating
        // point and a sub-second wall clock.  Load generation only needs
        // well-formed samples; fidelity is the feedback-replay tool's job.
        request.feedback.problem_size = rng.uniform(
            static_cast<double>(spec.n_min * spec.n_min),
            static_cast<double>(spec.n_max * spec.n_max));
        request.feedback.seconds = rng.uniform(0.001, 0.5);
    }
    return request;
}

Verb verb_of(const serve::Request& request) noexcept {
    switch (request.kind) {
    case serve::Request::Kind::kStats: return Verb::kStats;
    case serve::Request::Kind::kHealth: return Verb::kHealth;
    case serve::Request::Kind::kFeedback: return Verb::kFeedback;
    default: return Verb::kPartition;
    }
}

std::uint64_t stream_fingerprint(const WorkloadSpec& spec,
                                 std::uint64_t count) {
    std::uint64_t hash = kFnv1aOffset;
    for (std::uint64_t i = 0; i < count; ++i) {
        hash = fnv1a("\n", fnv1a(nth_request(spec, i).encode(), hash));
    }
    return hash;
}

std::vector<double> arrival_schedule(Arrival arrival, double rps,
                                     double duration, std::uint64_t seed) {
    FPM_CHECK(rps > 0.0, "arrival schedule needs rps > 0");
    FPM_CHECK(duration > 0.0, "arrival schedule needs duration > 0");
    std::vector<double> offsets;
    offsets.reserve(static_cast<std::size_t>(rps * duration) + 1);
    Rng rng(seed);
    double at = 0.0;
    while (at < duration) {
        offsets.push_back(at);
        if (arrival == Arrival::kUniform) {
            at += 1.0 / rps;
        } else {
            // Exponential inter-arrival with mean 1/rps; 1 - u avoids
            // log(0) because uniform() is in [0, 1).
            at += -std::log(1.0 - rng.uniform()) / rps;
        }
    }
    return offsets;
}

} // namespace fpm::loadgen
