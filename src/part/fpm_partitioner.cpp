#include "fpm/part/fpm_partitioner.hpp"

#include <algorithm>
#include <cmath>

#include "fpm/common/error.hpp"
#include "fpm/obs/metrics.hpp"
#include "fpm/obs/trace.hpp"

namespace fpm::part {

namespace {

/// The bisection stops once |sum x_i - n| <= kTolerance * n, or after
/// kMaxIterations steps (counted in part.fpm.unconverged).
constexpr double kTolerance = 1e-9;
constexpr std::size_t kMaxIterations = 200;

struct FpmMetrics {
    obs::Counter& calls;
    obs::Counter& iterations;
    obs::Counter& unconverged;
    obs::Histogram& iterations_per_call;

    static const FpmMetrics& get() {
        static auto& registry = obs::MetricsRegistry::global();
        static const FpmMetrics metrics{
            registry.counter("part.fpm.calls"),
            registry.counter("part.fpm.iterations"),
            registry.counter("part.fpm.unconverged"),
            registry.histogram("part.fpm.iterations_per_call")};
        return metrics;
    }
};

} // namespace

FpmPartitionResult partition_fpm(std::span<const core::SpeedFunction> models,
                                 double total) {
    obs::Span span("part.fpm_partition",
                   static_cast<std::uint64_t>(std::max(total, 0.0)));
    FPM_CHECK(!models.empty(), "need at least one device");
    FPM_CHECK(total >= 0.0, "total workload must be non-negative");

    const std::size_t p = models.size();
    FpmPartitionResult result;
    result.partition.share.assign(p, 0.0);
    if (total == 0.0) {
        return result;
    }

    // Views of each model's monotone execution-time envelope.
    std::vector<core::MonotoneTime> envelopes;
    envelopes.reserve(p);
    double capacity = 0.0;
    for (const auto& model : models) {
        envelopes.emplace_back(model);
        capacity += envelopes.back().max_problem();
    }
    FPM_CHECK(capacity >= total,
              "combined device capacity cannot hold the requested workload");

    auto assigned_at = [&](double t) {
        double sum = 0.0;
        for (auto& envelope : envelopes) {
            sum += envelope.invert(t);
        }
        return sum;
    };

    // Bracket the balanced time T.  An upper bound: the fastest single
    // device running everything it can hold; grow geometrically until the
    // assignment covers the total.
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t i = 0; i < models.size(); ++i) {
        const double probe = std::min(total, envelopes[i].max_problem());
        if (probe > 0.0) {
            const double t = models[i].time(probe);
            if (std::isfinite(t)) {
                hi = std::max(hi, t);
            }
        }
    }
    if (hi == 0.0) {
        hi = 1.0;
    }
    std::size_t guard = 0;
    while (assigned_at(hi) < total && guard++ < 128) {
        hi *= 2.0;
    }
    FPM_CHECK(assigned_at(hi) >= total,
              "could not bracket the balanced execution time");

    // Bisection on T; sum_i x_i(T) is monotone non-decreasing.
    double assigned = 0.0;
    bool converged = false;
    for (std::size_t it = 0; it < kMaxIterations; ++it) {
        const double mid = 0.5 * (lo + hi);
        assigned = assigned_at(mid);
        result.iterations = it + 1;
        if (std::fabs(assigned - total) <= kTolerance * total) {
            hi = mid;
            converged = true;
            break;
        }
        if (assigned < total) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    const FpmMetrics& metrics = FpmMetrics::get();
    metrics.calls.add();
    metrics.iterations.add(result.iterations);
    metrics.iterations_per_call.record(
        static_cast<double>(result.iterations));
    if (!converged) {
        metrics.unconverged.add();
    }

    result.balanced_time = hi;
    double sum = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
        result.partition.share[i] = envelopes[i].invert(hi);
        sum += result.partition.share[i];
    }

    // Normalise the residual rounding of the bisection onto unbounded
    // devices proportionally, so the shares add up to the total exactly.
    if (sum > 0.0) {
        const double scale = total / sum;
        double rescaled = 0.0;
        for (std::size_t i = 0; i < p; ++i) {
            double share = result.partition.share[i] * scale;
            share = std::min(share, envelopes[i].max_problem());
            result.partition.share[i] = share;
            rescaled += share;
        }
        // Any capacity clamping leftovers go to the first device that can
        // take them.
        double leftover = total - rescaled;
        for (std::size_t i = 0; i < p && leftover > 1e-12; ++i) {
            const double room =
                envelopes[i].max_problem() - result.partition.share[i];
            const double take = std::min(room, leftover);
            result.partition.share[i] += take;
            leftover -= take;
        }
    }

    return result;
}

} // namespace fpm::part
