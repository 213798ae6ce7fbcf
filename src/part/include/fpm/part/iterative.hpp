/// \file iterative.hpp
/// \brief Shape-aware iterative 2-D partitioning.
///
/// The 1-D FPM partitioner balances *areas*, but a device's kernel time
/// also depends mildly on the *shape* of its rectangle (a GPU's pivot-row
/// upload and chunk geometry scale with the rectangle's width; the paper
/// leans on the observation that near-square shapes make this negligible).
/// When the column layout hands a device a decidedly non-square rectangle,
/// the area-only balance drifts.
///
/// Following the refinement idea of Clarke et al. (the paper's ref [17]),
/// partition_iterative closes the loop:
///
///   1. partition areas with the FPM algorithm, lay out columns;
///   2. query the true per-device time for the *actual* rectangles;
///   3. fold the deviation into each device's model (multiplicative
///      correction at the assigned size) and repartition;
///   4. stop when the makespan improves by less than 0.5 % (at most six
///      rounds).
///
/// The best layout seen across rounds is returned, so the result is never
/// worse than the one-shot area-based partitioning.
#pragma once

#include <functional>

#include "fpm/part/column2d.hpp"
#include "fpm/part/fpm_partitioner.hpp"
#include "fpm/part/integer.hpp"

namespace fpm::part {

/// True execution time of one kernel invocation of device `device` on the
/// rectangle `rect` (seconds).  Must be positive for non-empty rectangles.
using RectTimeFn = std::function<double(std::size_t device, const Rect& rect)>;

/// Result of the refinement.
struct IterativeResult {
    IntPartition1D blocks;    ///< best integer partition found
    ColumnLayout layout;      ///< its 2-D layout
    double makespan = 0.0;    ///< true (shape-aware) makespan of `layout`
    std::size_t rounds = 0;   ///< refinement rounds executed
    bool converged = false;   ///< a round improved by less than 0.5 %
};

/// Runs the loop; `models` are the area-based FPMs, `rect_time` the
/// shape-aware oracle (simulator or measurement).  Throws fpm::Error on
/// inconsistent inputs.
IterativeResult partition_iterative(std::span<const core::SpeedFunction> models,
                                    std::int64_t n, const RectTimeFn& rect_time);

} // namespace fpm::part
