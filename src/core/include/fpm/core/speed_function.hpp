/// \file speed_function.hpp
/// \brief The Functional Performance Model: speed as a function of size.
///
/// The FPM (Lastovetsky & Reddy) represents the absolute speed of a
/// processor as a continuous function s(x) of problem size x, built
/// empirically from kernel timings.  Here x is the matrix area assigned to
/// the device, in b-by-b blocks, and s(x) = x / t_kernel(x) is the number
/// of blocks updated per second by one kernel invocation — proportional to
/// the flop rate (each block update costs 2*b^3 flops).
///
/// The piecewise-linear representation interpolates measured points and
/// clamps outside the measured range.  Devices with a hard maximum problem
/// size (a GPU whose kernel has no out-of-core support) carry a finite
/// max_problem(): time(x) is +infinity beyond it, which the partitioning
/// algorithm honours naturally.
#pragma once

#include <array>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "fpm/common/error.hpp"

namespace fpm::core {

/// One empirical point of the model.
struct SpeedPoint {
    double x = 0.0;      ///< problem size (matrix area in blocks)
    double speed = 0.0;  ///< x / t(x), blocks per second
};

/// One sample of a monotone execution-time envelope (see MonotoneTime).
struct EnvelopeSample {
    double x = 0.0;
    double time = 0.0;
};

/// Piecewise-linear speed function; see file comment.
class SpeedFunction {
public:
    SpeedFunction() = default;

    /// Points must have strictly increasing positive x and positive speed;
    /// they are sorted internally.  `max_problem` bounds the feasible
    /// problem size (infinity = unbounded).
    explicit SpeedFunction(std::vector<SpeedPoint> points, std::string name = {},
                           double max_problem =
                               std::numeric_limits<double>::infinity());

    /// Builds a constant-speed function (the CPM seen through the same
    /// interface).
    static SpeedFunction constant(double speed, std::string name = {},
                                  double max_problem =
                                      std::numeric_limits<double>::infinity());

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] const std::vector<SpeedPoint>& points() const noexcept {
        return points_;
    }
    [[nodiscard]] double max_problem() const noexcept { return max_problem_; }
    [[nodiscard]] bool empty() const noexcept { return points_.empty(); }

    /// Interpolated speed at x > 0 (clamped extrapolation outside the
    /// measured range).  Throws for x <= 0 or x > max_problem().
    [[nodiscard]] double speed(double x) const;

    /// Execution time of problem size x: x / speed(x); time(0) == 0 and
    /// time(x > max_problem) == +infinity.
    [[nodiscard]] double time(double x) const;

    /// Speed converted to GFlop/s for a given blocking factor b.
    [[nodiscard]] double gflops(double x, std::size_t block_size) const;

    /// A copy with every speed multiplied by `factor` (> 0).  Used by the
    /// iterative shape-aware partitioner to fold measured corrections into
    /// the model.
    [[nodiscard]] SpeedFunction scaled(double factor) const;

    /// A copy with the measured point (x, speed) spliced in: existing
    /// points within `merge_radius_rel * x` of x are replaced by the new
    /// point, everything else is kept, and the result is revalidated
    /// (strictly increasing positive x, positive speeds) — the
    /// monotone-interpolation safety check of the online refiner.  Throws
    /// for x <= 0, x > max_problem(), speed <= 0 or a negative radius.
    [[nodiscard]] SpeedFunction spliced(double x, double speed,
                                        double merge_radius_rel = 0.1) const;

private:
    friend class MonotoneTime;

    std::vector<SpeedPoint> points_;
    std::string name_;
    double max_problem_ = std::numeric_limits<double>::infinity();
    /// The envelope's last sample in each grid segment; see MonotoneTime.
    std::vector<EnvelopeSample> envelope_;
};

/// Monotone execution-time view of a SpeedFunction.
///
/// The geometric FPM partitioning algorithm needs, for each device, the
/// inverse of its execution-time function: x(T) = the largest problem
/// solvable within time T.  Real measured speed functions can make
/// t(x) = x/s(x) locally non-monotone (e.g. the super-linear speed ramp of
/// a GPU), so the partitioner works on an envelope: t sampled on a grid
/// (eight samples per knot segment, then a tail segment out to a finite
/// max_problem) under a running maximum, interpolated linearly between
/// samples.  The inverse is then linear between sample times, with a step
/// at each flat run, and piece() hands the partitioner the linear piece
/// that holds a time, so it can solve for the balanced time exactly.
///
/// A SpeedFunction builds its envelope once, when constructed, and keeps
/// only each grid segment's last sample (two doubles per knot); being
/// immutable, one model may be read by any number of threads.  A view
/// regenerates just the segment a query falls in, with the constructor's
/// arithmetic, and keeps it for the next query, so results equal the full
/// grid bit for bit; it also keeps the segment its last query found and
/// tries it first.  Make one view per plan and let its stages share it
/// (the solve, the shares, the rounding and the makespan), so each device
/// regenerates its segment once: a view points into its model and must
/// not outlive it, and time(), invert() and piece() update what it keeps,
/// so a view is never shared between threads.
class MonotoneTime {
public:
    /// Grid samples per knot segment.
    static constexpr std::size_t kSamplesPerSegment = 8;

    /// One linear piece of invert(): for every u in [t0, t1), invert(u) is
    /// linear in u with this slope, and x is invert(t) for the queried t.
    struct Piece {
        double t0 = 0.0;
        double t1 = 0.0;
        double x = 0.0;
        double slope = 0.0;
    };

    explicit MonotoneTime(const SpeedFunction& fn);
    MonotoneTime(const SpeedFunction&&) = delete;  // would dangle

    /// Monotone (non-decreasing) execution time at x in [0, max_problem].
    /// For unbounded devices, sizes beyond the measured range extrapolate
    /// linearly at the terminal (clamped) speed.
    [[nodiscard]] double time(double x);

    /// Largest x with time(x) <= T (0 if nothing fits; never exceeds
    /// max_problem); piece(t).x.
    [[nodiscard]] double invert(double t);

    /// The piece of invert() that holds T: t0 and t1 are the grid samples
    /// either side of it, as invert() chooses them.  Past the grid t1 is
    /// infinity and the slope the terminal speed (0 for a bounded device).
    /// `marks_only` reads the piece off the model's stored segment ends
    /// instead, a coarser envelope that regenerates nothing.
    [[nodiscard]] Piece piece(double t, bool marks_only = false);

    /// Capacity bound: the speed function's max_problem() (infinity for
    /// unbounded devices).
    [[nodiscard]] double max_problem() const noexcept { return fn_->max_problem(); }

    /// Envelope time at the end of the sampled grid.
    [[nodiscard]] double max_time() const noexcept;

private:
    /// The grid samples either side of `value` along `key` (x or time): the
    /// last at or below it and the first above it, which must exist.  With
    /// `marks_only`, the stored segment ends either side of it.
    std::pair<EnvelopeSample, EnvelopeSample> bracket(double value,
                                                      double EnvelopeSample::*key,
                                                      bool marks_only = false);

    const SpeedFunction* fn_ = nullptr;
    double max_x_ = 0.0;           // end of the sampled grid
    double terminal_speed_ = 0.0;  // clamped speed past the grid
    // The grid segment samples_ holds (none yet: max), and its samples.
    std::size_t segment_ = std::numeric_limits<std::size_t>::max();
    std::array<EnvelopeSample, kSamplesPerSegment> samples_{};
    // The segment the last bracket() found, by x or by time alike.
    std::size_t mark_ = 0;
};

} // namespace fpm::core
