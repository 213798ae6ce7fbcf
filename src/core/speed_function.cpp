#include "fpm/core/speed_function.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "fpm/common/math.hpp"

namespace fpm::core {

namespace {

/// Speed at x on the knot segment from a to b, a.x <= x < b.x.
double interpolate(const SpeedPoint& a, const SpeedPoint& b, double x) {
    return lerp(a.speed, b.speed, (x - a.x) / (b.x - a.x));
}

/// Writes grid segment `segment`'s samples to `out`, continuing from the
/// grid's sample `prev`, and returns the segment's last (`prev` if none).
/// Segment k < knots - 1 subsamples knot segment k; the last is the tail up
/// to max_x.  The model's summary and every view's regeneration run this.
/// A sample inside knot segment k takes its time from that segment
/// directly, as fn.time() would after its search for the knots; only one
/// outside it (a capacity clamp, the tail) asks fn.time().
EnvelopeSample sample_segment(const SpeedFunction& fn, double max_x,
                              std::size_t segment, EnvelopeSample prev,
                              EnvelopeSample* out) {
    const auto& pts = fn.points();
    const bool knot_segment = segment + 1 < pts.size();
    std::size_t count = 0;
    auto push = [&](double x) {
        x = std::min(x, max_x);
        const double t =
            knot_segment && pts[segment].x <= x && x < pts[segment + 1].x
                ? x / interpolate(pts[segment], pts[segment + 1], x)
                : fn.time(x);
        prev = EnvelopeSample{x, std::max(t, prev.time)};
        out[count++] = prev;
    };
    auto push_sample = [&](double x) {
        if (x > prev.x + 1e-12 && x <= max_x * (1.0 + 1e-12)) {
            push(x);
        }
    };
    if (knot_segment) {
        for (std::size_t s = 0; s < MonotoneTime::kSamplesPerSegment; ++s) {
            const double t = static_cast<double>(s) /
                             static_cast<double>(MonotoneTime::kSamplesPerSegment);
            push_sample(lerp(pts[segment].x, pts[segment + 1].x, t));
        }
    } else {
        push_sample(pts.back().x);
        if (prev.x < max_x) {
            push(max_x);
        }
    }
    return prev;
}

} // namespace

SpeedFunction::SpeedFunction(std::vector<SpeedPoint> points, std::string name,
                             double max_problem)
    : points_(std::move(points)), name_(std::move(name)), max_problem_(max_problem) {
    FPM_CHECK(!points_.empty(), "speed function needs at least one point");
    FPM_CHECK(max_problem_ > 0.0, "max_problem must be positive");
    std::sort(points_.begin(), points_.end(),
              [](const SpeedPoint& a, const SpeedPoint& b) { return a.x < b.x; });
    for (std::size_t i = 0; i < points_.size(); ++i) {
        FPM_CHECK(points_[i].x > 0.0, "speed points need positive x");
        FPM_CHECK(points_[i].speed > 0.0, "speed points need positive speed");
        if (i > 0) {
            FPM_CHECK(points_[i].x > points_[i - 1].x,
                      "speed points need strictly increasing x");
        }
    }

    // The monotone time envelope, summarised: each grid segment's last
    // sample (a segment the de-duplication empties repeats the one before).
    // The grid ends at the capacity bound, or for an unbounded device at the
    // last knot: past it speed is clamped, so time is linear.
    const double max_x =
        std::isfinite(max_problem_) ? max_problem_ : points_.back().x;
    std::array<EnvelopeSample, MonotoneTime::kSamplesPerSegment> samples;
    EnvelopeSample last;
    envelope_.reserve(points_.size());
    for (std::size_t segment = 0; segment < points_.size(); ++segment) {
        last = sample_segment(*this, max_x, segment, last, samples.data());
        envelope_.push_back(last);
    }
}

SpeedFunction SpeedFunction::constant(double speed, std::string name,
                                      double max_problem) {
    FPM_CHECK(speed > 0.0, "constant speed must be positive");
    return SpeedFunction({SpeedPoint{1.0, speed}}, std::move(name), max_problem);
}

double SpeedFunction::speed(double x) const {
    FPM_CHECK(!points_.empty(), "speed function is empty");
    FPM_CHECK(x > 0.0, "problem size must be positive");
    FPM_CHECK(x <= max_problem_ * (1.0 + 1e-12),
              "problem size exceeds the device's maximum");

    if (x <= points_.front().x) {
        return points_.front().speed;
    }
    if (x >= points_.back().x) {
        return points_.back().speed;
    }
    const auto upper = std::upper_bound(
        points_.begin(), points_.end(), x,
        [](double value, const SpeedPoint& p) { return value < p.x; });
    return interpolate(*(upper - 1), *upper, x);
}

double SpeedFunction::time(double x) const {
    FPM_CHECK(x >= 0.0, "problem size must be non-negative");
    if (x == 0.0) {
        return 0.0;
    }
    if (x > max_problem_ * (1.0 + 1e-12)) {
        return std::numeric_limits<double>::infinity();
    }
    return x / speed(x);
}

double SpeedFunction::gflops(double x, std::size_t block_size) const {
    const double b = static_cast<double>(block_size);
    return speed(x) * 2.0 * b * b * b / 1e9;
}

SpeedFunction SpeedFunction::scaled(double factor) const {
    FPM_CHECK(factor > 0.0, "scale factor must be positive");
    std::vector<SpeedPoint> scaled_points = points_;
    for (auto& point : scaled_points) {
        point.speed *= factor;
    }
    return SpeedFunction(std::move(scaled_points), name_, max_problem_);
}

SpeedFunction SpeedFunction::spliced(double x, double speed,
                                     double merge_radius_rel) const {
    FPM_CHECK(x > 0.0, "spliced point needs positive x");
    FPM_CHECK(x <= max_problem_ * (1.0 + 1e-12),
              "spliced point exceeds the device's maximum");
    FPM_CHECK(speed > 0.0, "spliced point needs positive speed");
    FPM_CHECK(merge_radius_rel >= 0.0, "merge radius must be non-negative");

    const double radius = merge_radius_rel * x;
    std::vector<SpeedPoint> merged;
    merged.reserve(points_.size() + 1);
    for (const SpeedPoint& point : points_) {
        if (std::abs(point.x - x) > radius) {
            merged.push_back(point);
        }
    }
    merged.push_back(SpeedPoint{x, speed});
    // The constructor re-sorts and enforces strictly increasing positive
    // x and positive speeds, so a degenerate merge cannot produce an
    // ill-formed interpolant.
    return SpeedFunction(std::move(merged), name_, max_problem_);
}

MonotoneTime::MonotoneTime(const SpeedFunction& fn) : fn_(&fn) {
    FPM_CHECK(!fn.empty(), "cannot build MonotoneTime from an empty function");
    max_x_ = fn.envelope_.back().x;
    terminal_speed_ = fn.speed(std::min(fn.points().back().x, max_x_));
}

std::pair<EnvelopeSample, EnvelopeSample>
MonotoneTime::bracket(double value, double EnvelopeSample::*key,
                      bool marks_only) {
    // The first grid sample above `value` is in the first segment whose
    // last sample is above it.  Marks are sorted along x and time alike,
    // so the last query's segment is it while value still falls between
    // that segment's mark and the one before; a solve's queries converge,
    // so most skip the search.
    const auto& marks = fn_->envelope_;
    std::size_t k = mark_;
    if (!(value < marks[k].*key && (k == 0 || marks[k - 1].*key <= value))) {
        k = static_cast<std::size_t>(
            std::ranges::upper_bound(marks, value, {}, key) - marks.begin());
        mark_ = k;
    }
    EnvelopeSample lo = k == 0 ? EnvelopeSample{} : marks[k - 1];
    // A mark that an emptied segment repeats equals the one before, so it
    // is never the first above `value`.
    if (marks_only) {
        return {lo, marks[k]};
    }
    if (k != segment_) {
        sample_segment(*fn_, max_x_, k, lo, samples_.data());
        segment_ = k;
    }
    const EnvelopeSample* hi = samples_.data();
    while (hi->*key <= value) {
        lo = *hi++;
    }
    return {lo, *hi};
}

double MonotoneTime::time(double x) {
    FPM_CHECK(x >= 0.0, "problem size must be non-negative");
    if (x > max_x_ * (1.0 + 1e-12)) {
        if (x > max_problem() * (1.0 + 1e-12)) {
            return std::numeric_limits<double>::infinity();
        }
        // Unbounded device past the sampled grid: linear extrapolation at
        // the terminal (clamped) speed.
        return max_time() + (x - max_x_) / terminal_speed_;
    }
    if (x >= max_x_) {
        return max_time();
    }
    const auto [lo, hi] = bracket(x, &EnvelopeSample::x);
    const double f = (x - lo.x) / (hi.x - lo.x);
    return lerp(lo.time, hi.time, f);
}

double MonotoneTime::max_time() const noexcept {
    return fn_->envelope_.back().time;
}

double MonotoneTime::invert(double t) {
    return piece(t).x;
}

MonotoneTime::Piece MonotoneTime::piece(double t, bool marks_only) {
    FPM_CHECK(t >= 0.0, "time must be non-negative");
    constexpr double kEnd = std::numeric_limits<double>::infinity();
    if (t >= max_time()) {
        if (!std::isfinite(max_problem())) {
            // Unbounded device: keep growing at the terminal speed.
            return {max_time(), kEnd,
                    max_x_ + (t - max_time()) * terminal_speed_, terminal_speed_};
        }
        return {max_time(), kEnd, max_x_, 0.0};
    }
    // Largest x with time <= t; within flat runs the rightmost x wins, so
    // the upper sample's time is above the lower's.
    const auto [lo, hi] = bracket(t, &EnvelopeSample::time, marks_only);
    const double f = (t - lo.time) / (hi.time - lo.time);
    return {lo.time, hi.time, lerp(lo.x, hi.x, f),
            (hi.x - lo.x) / (hi.time - lo.time)};
}

} // namespace fpm::core
