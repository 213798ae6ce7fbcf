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

#include <limits>
#include <string>
#include <vector>

#include "fpm/common/error.hpp"

namespace fpm::core {

/// One empirical point of the model.
struct SpeedPoint {
    double x = 0.0;      ///< problem size (matrix area in blocks)
    double speed = 0.0;  ///< x / t(x), blocks per second
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
    std::vector<SpeedPoint> points_;
    std::string name_;
    double max_problem_ = std::numeric_limits<double>::infinity();
};

/// Monotone execution-time view of a SpeedFunction.
///
/// The geometric FPM partitioning algorithm needs, for each device, the
/// inverse of its execution-time function: x(T) = the largest problem
/// solvable within time T.  Real measured speed functions can make
/// t(x) = x/s(x) locally non-monotone (e.g. the super-linear speed ramp of
/// a GPU); MonotoneTime samples t on a refined grid (eight samples per
/// segment between knots), takes the running maximum (the canonical
/// monotone envelope used by the partitioner) and supports O(log n)
/// inversion.  The envelope is a pure function of the SpeedFunction.
class MonotoneTime {
public:
    explicit MonotoneTime(const SpeedFunction& fn);

    /// Monotone (non-decreasing) execution time at x in [0, max_problem].
    /// For unbounded devices, sizes beyond the measured range extrapolate
    /// linearly at the terminal (clamped) speed.
    [[nodiscard]] double time(double x) const;

    /// Largest x with time(x) <= T (0 if nothing fits; never exceeds
    /// max_problem).
    [[nodiscard]] double invert(double t) const;

    /// Capacity bound: the speed function's max_problem() (infinity for
    /// unbounded devices).
    [[nodiscard]] double max_problem() const noexcept { return max_problem_; }

    /// Envelope time at the end of the sampled grid.
    [[nodiscard]] double max_time() const noexcept;

private:
    std::vector<double> xs_;
    std::vector<double> ts_;  // running-max envelope, same length as xs_
    double max_x_ = 0.0;      // end of the sampled grid
    double max_problem_ = 0.0;
    double terminal_speed_ = 0.0;  // clamped speed past the grid
};

} // namespace fpm::core
