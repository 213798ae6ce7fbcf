#include "fpm/part/fpm_partitioner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "fpm/common/error.hpp"
#include "fpm/obs/metrics.hpp"
#include "fpm/obs/trace.hpp"
#include "views.hpp"

namespace fpm::part {

namespace {

struct FpmMetrics {
    obs::Counter& calls;
    obs::Counter& iterations;
    obs::Histogram& iterations_per_call;

    static const FpmMetrics& get() {
        static auto& registry = obs::MetricsRegistry::global();
        static const FpmMetrics metrics{
            registry.counter("part.fpm.calls"),
            registry.counter("part.fpm.iterations"),
            registry.histogram("part.fpm.iterations_per_call")};
        return metrics;
    }
};

/// The smallest T with S(T) = sum_i envelopes[i].piece(T, marks_only).x
/// at least `total`, by a safeguarded Newton iteration from `start`.  S is
/// non-decreasing and linear between the devices' sample times, with a
/// step up at each flat run.  At T the pieces give S, its slope and the
/// interval [from, to) they share, where S is linear: the projection
/// T + (total - S) / slope is the root if it falls there.  Otherwise the
/// root is at or past `to` (S < total), which raises lo, or at or before
/// `from`, which lowers hi; the next T is the projection if it falls in
/// [lo, hi), else the midpoint, else lo.  Every pass thus returns, raises
/// lo above T to a sample time or lowers hi to one at or below T.  There
/// are finitely many sample times, so the loop ends, and a bracket that
/// closes (lo >= hi) does so where S steps over the total: the root is hi.
double solve(std::span<core::MonotoneTime> envelopes, double total,
             double start, bool marks_only, std::size_t& evaluations) {
    double lo = 0.0;
    double hi = std::numeric_limits<double>::infinity();
    for (double t = start;;) {
        ++evaluations;
        double assigned = 0.0;
        double slope = 0.0;
        double from = 0.0;
        double to = std::numeric_limits<double>::infinity();
        for (auto& envelope : envelopes) {
            const core::MonotoneTime::Piece piece = envelope.piece(t, marks_only);
            assigned += piece.x;
            slope += piece.slope;
            from = std::max(from, piece.t0);
            to = std::min(to, piece.t1);
        }
        const double gap = total - assigned;
        const double root = t + gap / slope;  // not finite when slope is 0
        if (gap > 0.0) {
            if (root < to) {
                return root;
            }
            lo = to;
        } else {
            if (root >= from) {
                return root;
            }
            hi = from;
        }
        if (lo >= hi) {
            return hi;
        }
        const double mid = lo + 0.5 * (hi - lo);
        t = root >= lo && root < hi ? root : mid < hi ? mid : lo;
    }
}

} // namespace

FpmPartitionResult partition_fpm(std::span<const core::SpeedFunction> models,
                                 double total) {
    std::vector<core::MonotoneTime> envelopes = make_views(models);
    return partition_fpm(envelopes, total);
}

FpmPartitionResult partition_fpm(std::span<core::MonotoneTime> envelopes,
                                 double total) {
    FPM_CHECK(!envelopes.empty(), "need at least one device");
    FPM_CHECK(std::isfinite(total) && total >= 0.0,
              "total workload must be finite and non-negative");
    obs::Span span("part.fpm_partition", static_cast<std::uint64_t>(total));

    const std::size_t p = envelopes.size();
    FpmPartitionResult result;
    result.partition.share.assign(p, 0.0);
    if (total == 0.0) {
        return result;
    }

    double capacity = 0.0;
    for (const auto& envelope : envelopes) {
        capacity += envelope.max_problem();
    }
    FPM_CHECK(capacity >= total,
              "combined device capacity cannot hold the requested workload");

    // The balanced time T solves sum_i x_i(T) = total exactly: first over
    // the stored segment ends, then over the full grid from that root, so
    // each device regenerates about one grid segment.
    const double coarse = solve(envelopes, total, 0.0, true, result.iterations);
    const double balanced =
        solve(envelopes, total, coarse, false, result.iterations);
    const FpmMetrics& metrics = FpmMetrics::get();
    metrics.calls.add();
    metrics.iterations.add(result.iterations);
    metrics.iterations_per_call.record(
        static_cast<double>(result.iterations));

    result.balanced_time = balanced;
    double sum = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
        result.partition.share[i] = envelopes[i].invert(balanced);
        sum += result.partition.share[i];
    }

    // Normalise the residual rounding of the solve onto unbounded
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
