#include "fpm/adapt/refiner.hpp"

#include <algorithm>
#include <cmath>

#include "fpm/common/error.hpp"
#include "fpm/serve/model_registry.hpp"

namespace fpm::adapt {

namespace {

/// Existing model points within this fraction of the spliced x are
/// replaced by the measured point (keeps knots strictly increasing).
constexpr double kMergeRadius = 0.1;

/// Bounded update: one refinement moves the model speed at x by at most
/// this fraction of its current value, so a single bad window cannot
/// fold an outlier straight into the model.
constexpr double kMaxSpeedStep = 0.5;

} // namespace

OnlineRefiner::OnlineRefiner(const AdaptConfig& config) : config_(config) {
    FPM_CHECK(config.min_speed_change >= 0.0,
              "min_speed_change must be non-negative");
}

RefineResult OnlineRefiner::refine(std::vector<core::SpeedFunction>& models,
                                   std::size_t device, double x,
                                   double observed_speed) const {
    FPM_CHECK(device < models.size(), "device index out of range");
    FPM_CHECK(x > 0.0, "problem size must be positive");
    FPM_CHECK(observed_speed > 0.0, "observed speed must be positive");

    const core::SpeedFunction& model = models[device];
    const double anchor = std::min(x, model.max_problem());
    const double predicted = model.speed(anchor);

    RefineResult result;
    result.model_speed = predicted;
    result.relative_error =
        std::abs(observed_speed - predicted) / predicted;

    // Bounded update: one window moves the model by at most
    // kMaxSpeedStep relative to the current prediction.
    const double lo = predicted * (1.0 - kMaxSpeedStep);
    const double hi = predicted * (1.0 + kMaxSpeedStep);
    const double target = std::clamp(observed_speed, std::max(lo, 1e-300), hi);
    result.applied_speed = target;

    // Deadband: below min_speed_change the splice would only churn the
    // published version without changing any plan materially.
    if (std::abs(target - predicted) / predicted < config_.min_speed_change) {
        return result;
    }

    // Propagate the (already clamped) ratio to the knots below the
    // anchor before splicing the measured point itself.  Feedback only
    // ever arrives at the device's current operating point, and a
    // rebalance moves a slowed device *down* in x — exactly into the
    // region the model has no fresh evidence for.  Left at their stale
    // values those knots let the partitioner sidestep the corrected
    // point round after round; scaling them by the measured ratio
    // extrapolates the shift (throttling and contention are
    // multiplicative across sizes), stays bounded by kMaxSpeedStep,
    // and windows at the smaller sizes correct any over-extrapolation
    // as soon as plans land there.
    const double ratio = target / predicted;
    std::vector<core::SpeedPoint> points = model.points();
    for (core::SpeedPoint& point : points) {
        if (point.x < anchor) {
            point.speed *= ratio;
        }
    }
    // A model at the registry's point bound takes no new knot: the
    // splice replaces the knot nearest the anchor, so its republish (and
    // with it every later republish of the set) is not refused.
    if (points.size() >= serve::kMaxPoints) {
        const auto nearest = std::ranges::min_element(
            points, {}, [&](const core::SpeedPoint& point) {
                return std::abs(point.x - anchor);
            });
        if (std::abs(nearest->x - anchor) > kMergeRadius * anchor) {
            points.erase(nearest);
        }
    }
    const core::SpeedFunction rescaled(std::move(points), model.name(),
                                       model.max_problem());
    models[device] = rescaled.spliced(anchor, target, kMergeRadius);
    result.applied = true;
    return result;
}

} // namespace fpm::adapt
