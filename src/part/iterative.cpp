#include "fpm/part/iterative.hpp"

#include <algorithm>
#include <cmath>

#include "fpm/common/error.hpp"
#include "fpm/part/request.hpp"

namespace fpm::part {

namespace {

/// True makespan of a layout under the shape-aware oracle.
double layout_makespan(const ColumnLayout& layout, const RectTimeFn& rect_time) {
    double worst = 0.0;
    for (std::size_t i = 0; i < layout.rects.size(); ++i) {
        const Rect& rect = layout.rects[i];
        if (rect.area() == 0) {
            continue;
        }
        const double t = rect_time(i, rect);
        FPM_CHECK(t > 0.0, "rect_time must be positive for non-empty rects");
        worst = std::max(worst, t);
    }
    return worst;
}

} // namespace

IterativeResult partition_iterative(std::span<const core::SpeedFunction> models,
                                    std::int64_t n, const RectTimeFn& rect_time) {
    // The loop stops after kMaxRounds rounds, or once a round improves the
    // makespan by less than kConvergence (relative).
    constexpr std::size_t kMaxRounds = 6;
    constexpr double kConvergence = 0.005;
    FPM_CHECK(!models.empty(), "need at least one device");
    FPM_CHECK(n >= 1, "matrix size must be positive");
    FPM_CHECK(static_cast<bool>(rect_time), "need a shape-aware time oracle");

    // Working copy of the models; corrections accumulate multiplicatively.
    std::vector<core::SpeedFunction> corrected(models.begin(), models.end());

    IterativeResult best;
    double previous_makespan = std::numeric_limits<double>::infinity();

    for (std::size_t round = 0; round < kMaxRounds; ++round) {
        const PartitionPlan plan = partition({corrected, n, Algorithm::kFpm});
        const ColumnLayout& layout = plan.layout;
        const double makespan = layout_makespan(layout, rect_time);

        if (round == 0 || makespan < best.makespan) {
            best.blocks = {plan.blocks, plan.makespan};
            best.layout = layout;
            best.makespan = makespan;
        }
        best.rounds = round + 1;

        if (round > 0) {
            const double improvement =
                (previous_makespan - makespan) / previous_makespan;
            if (improvement < kConvergence) {
                best.converged = true;
                break;
            }
        }
        previous_makespan = makespan;

        // Fold the observed shape effect of THIS round's layout into the
        // models: if device i ran slower on its actual rectangle than the
        // area model predicted, scale its model down by the observed
        // ratio (clamped, to keep the loop stable).
        for (std::size_t i = 0; i < corrected.size(); ++i) {
            const Rect& rect = layout.rects[i];
            if (rect.area() == 0) {
                continue;
            }
            const double area = static_cast<double>(rect.area());
            const double predicted = corrected[i].time(area);
            if (predicted <= 0.0 || !std::isfinite(predicted)) {
                continue;
            }
            const double actual = rect_time(i, rect);
            const double factor = std::clamp(predicted / actual, 0.5, 2.0);
            corrected[i] = corrected[i].scaled(factor);
        }
    }

    return best;
}

} // namespace fpm::part
