/// \file refiner.hpp
/// \brief Splices reliable feedback windows into working speed models.
///
/// One refinement folds a bucket mean (x, observed speed) into the
/// device's piecewise-linear SpeedFunction via SpeedFunction::spliced,
/// under two guards: the *bounded update* (the model speed at x moves by
/// at most half its current value per window, so an outlier window
/// cannot rewrite the model in one step — sustained drift converges over
/// a few windows instead) and the *deadband* (changes below
/// min_speed_change are skipped entirely).  The splice itself
/// revalidates strict monotonicity of the knots, which is the
/// monotone-interpolation safety check.  A model already at
/// serve::kMaxPoints points keeps that many: the splice replaces the knot
/// nearest x instead of adding one.
#pragma once

#include <cstddef>
#include <vector>

#include "fpm/adapt/adapt_config.hpp"
#include "fpm/core/speed_function.hpp"

namespace fpm::adapt {

/// Outcome of one refinement attempt.
struct RefineResult {
    bool applied = false;         ///< the model was actually updated
    double model_speed = 0.0;     ///< model prediction before refining
    double applied_speed = 0.0;   ///< speed written (after clamping)
    double relative_error = 0.0;  ///< |observed - model| / model
};

/// See file comment.  Stateless apart from the config; thread-safe.
class OnlineRefiner {
public:
    /// Throws fpm::Error for a negative min_speed_change.
    explicit OnlineRefiner(const AdaptConfig& config);

    /// Refines models[device] with the bucket mean (x, observed_speed).
    /// x beyond the device's max_problem() is clamped to it (the model
    /// cannot learn outside its own domain).  Throws fpm::Error for an
    /// out-of-range device or non-positive inputs.
    RefineResult refine(std::vector<core::SpeedFunction>& models,
                        std::size_t device, double x,
                        double observed_speed) const;

private:
    AdaptConfig config_;
};

} // namespace fpm::adapt
