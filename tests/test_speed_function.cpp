// Tests for the FPM core representation: piecewise-linear speed functions
// and their monotone execution-time envelopes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "fpm/app/device_set.hpp"
#include "fpm/common/math.hpp"
#include "fpm/common/rng.hpp"
#include "fpm/core/speed_function.hpp"
#include "fpm/sim/specs.hpp"

namespace fpm::core {
namespace {

SpeedFunction ramp_function() {
    // Speed grows 10 -> 40 between x = 10 and x = 100.
    return SpeedFunction({{10.0, 10.0}, {40.0, 25.0}, {100.0, 40.0}}, "ramp");
}

TEST(SpeedFunction, InterpolatesExactlyAtKnots) {
    const SpeedFunction fn = ramp_function();
    EXPECT_DOUBLE_EQ(fn.speed(10.0), 10.0);
    EXPECT_DOUBLE_EQ(fn.speed(40.0), 25.0);
    EXPECT_DOUBLE_EQ(fn.speed(100.0), 40.0);
}

TEST(SpeedFunction, LinearBetweenKnots) {
    const SpeedFunction fn = ramp_function();
    EXPECT_DOUBLE_EQ(fn.speed(25.0), 17.5);  // halfway 10->40
    EXPECT_DOUBLE_EQ(fn.speed(70.0), 32.5);  // halfway 40->100
}

TEST(SpeedFunction, ClampedExtrapolation) {
    const SpeedFunction fn = ramp_function();
    EXPECT_DOUBLE_EQ(fn.speed(1.0), 10.0);
    EXPECT_DOUBLE_EQ(fn.speed(1000.0), 40.0);
}

TEST(SpeedFunction, TimeDefinition) {
    const SpeedFunction fn = ramp_function();
    EXPECT_DOUBLE_EQ(fn.time(0.0), 0.0);
    EXPECT_DOUBLE_EQ(fn.time(40.0), 40.0 / 25.0);
    EXPECT_DOUBLE_EQ(fn.time(200.0), 200.0 / 40.0);
}

TEST(SpeedFunction, BoundedDeviceHasInfiniteTimeBeyondMax) {
    const SpeedFunction fn({{10.0, 10.0}, {100.0, 20.0}}, "gpu", 150.0);
    EXPECT_TRUE(std::isfinite(fn.time(150.0)));
    EXPECT_TRUE(std::isinf(fn.time(151.0)));
    EXPECT_THROW((void)fn.speed(151.0), fpm::Error);
}

TEST(SpeedFunction, PointsSortedOnConstruction) {
    const SpeedFunction fn({{100.0, 40.0}, {10.0, 10.0}}, "unsorted");
    EXPECT_DOUBLE_EQ(fn.points().front().x, 10.0);
    EXPECT_DOUBLE_EQ(fn.points().back().x, 100.0);
}

TEST(SpeedFunction, Validation) {
    EXPECT_THROW(SpeedFunction(std::vector<SpeedPoint>{}), fpm::Error);
    EXPECT_THROW(SpeedFunction({{0.0, 5.0}}), fpm::Error);     // x must be > 0
    EXPECT_THROW(SpeedFunction({{1.0, 0.0}}), fpm::Error);     // speed > 0
    EXPECT_THROW(SpeedFunction({{1.0, 5.0}, {1.0, 6.0}}), fpm::Error);  // dup x
    const SpeedFunction fn = ramp_function();
    EXPECT_THROW((void)fn.speed(0.0), fpm::Error);
    EXPECT_THROW((void)fn.time(-1.0), fpm::Error);
}

TEST(SpeedFunction, ConstantFactory) {
    const SpeedFunction fn = SpeedFunction::constant(12.0, "cpm");
    EXPECT_DOUBLE_EQ(fn.speed(1.0), 12.0);
    EXPECT_DOUBLE_EQ(fn.speed(1e6), 12.0);
    EXPECT_DOUBLE_EQ(fn.time(24.0), 2.0);
    EXPECT_THROW(SpeedFunction::constant(0.0), fpm::Error);
}

TEST(SpeedFunction, GflopsConversion) {
    const SpeedFunction fn = SpeedFunction::constant(2.0);  // 2 blocks/s
    // 2 blocks/s * 2*b^3 flops per block, b = 10 -> 4000 flops/s.
    EXPECT_DOUBLE_EQ(fn.gflops(5.0, 10), 4000.0 / 1e9);
}

TEST(MonotoneTime, MatchesTimeForWellBehavedFunctions) {
    const SpeedFunction fn = ramp_function();
    MonotoneTime envelope(fn);
    for (double x = 1.0; x <= 100.0; x += 7.3) {
        EXPECT_NEAR(envelope.time(x), fn.time(x), 0.02 * fn.time(x)) << x;
    }
}

TEST(MonotoneTime, InvertRoundTrip) {
    const SpeedFunction fn = ramp_function();
    MonotoneTime envelope(fn);
    for (double x = 2.0; x <= 100.0; x += 4.9) {
        const double t = envelope.time(x);
        const double back = envelope.invert(t);
        EXPECT_NEAR(back, x, 0.25) << "x=" << x;
    }
}

TEST(MonotoneTime, InvertIsMonotone) {
    const SpeedFunction fn = ramp_function();
    MonotoneTime envelope(fn);
    double previous = 0.0;
    for (double t = 0.0; t <= envelope.max_time(); t += envelope.max_time() / 37) {
        const double x = envelope.invert(t);
        EXPECT_GE(x, previous - 1e-9);
        previous = x;
    }
}

TEST(MonotoneTime, EnvelopeFlattensNonMonotoneTime) {
    // A super-linear speed cliff makes raw time non-monotone: speed drops
    // hard at x = 50 (e.g. the GPU memory limit), then the device is so
    // slow that t(60) > t(50), but right before the drop, t briefly
    // decreases going backwards.  The envelope must be non-decreasing.
    const SpeedFunction fn({{10.0, 10.0}, {49.0, 50.0}, {51.0, 5.0}}, "cliff");
    MonotoneTime envelope(fn);
    double previous = 0.0;
    for (double x = 0.0; x <= 51.0; x += 0.5) {
        const double t = envelope.time(x);
        EXPECT_GE(t, previous - 1e-12) << "x=" << x;
        previous = t;
    }
}

TEST(MonotoneTime, InvertHonoursCapacityBound) {
    const SpeedFunction fn({{10.0, 10.0}, {100.0, 20.0}}, "gpu", 120.0);
    MonotoneTime envelope(fn);
    EXPECT_DOUBLE_EQ(envelope.max_problem(), 120.0);
    // Beyond the max feasible time, the device saturates at its capacity.
    EXPECT_DOUBLE_EQ(envelope.invert(1e9), 120.0);
    EXPECT_DOUBLE_EQ(envelope.invert(0.0), 0.0);
}

TEST(MonotoneTime, UnboundedFunctionExtendsPastLastKnot) {
    const SpeedFunction fn = ramp_function();  // unbounded
    MonotoneTime envelope(fn);
    EXPECT_TRUE(std::isinf(envelope.max_problem()));
    // Beyond the measured range, time extrapolates at the clamped speed
    // (40 blocks/s), so x = 200 takes 5 s and invert(5) = 200.
    EXPECT_NEAR(envelope.time(200.0), 5.0, 1e-9);
    EXPECT_NEAR(envelope.invert(5.0), 200.0, 1e-9);
}

/// The whole sampled grid, built eagerly: the reference the compact
/// envelope must match bit for bit.  Construction, time() and invert()
/// are kept verbatim from the full-grid form of MonotoneTime.
class FullGridEnvelope {
public:
    explicit FullGridEnvelope(const SpeedFunction& fn) {
        FPM_CHECK(!fn.empty(), "cannot build MonotoneTime from an empty function");

        const auto& pts = fn.points();
        max_problem_ = fn.max_problem();
        // Beyond the last measured point speed is clamped, so time is linear
        // and invertible in closed form; the sampled grid only needs to reach
        // the larger of the last knot and a finite capacity bound.
        max_x_ = std::isfinite(max_problem_) ? max_problem_ : pts.back().x;
        terminal_speed_ = fn.speed(std::min(pts.back().x, max_x_));

        // Sample grid: knots plus uniform subsamples per segment, extended to
        // max_x_ when the feasible range exceeds the measured range.
        constexpr std::size_t kSamplesPerSegment = 8;
        xs_.push_back(0.0);
        ts_.push_back(0.0);
        auto push_sample = [&](double x) {
            if (x <= xs_.back() + 1e-12 || x > max_x_ * (1.0 + 1e-12)) {
                return;
            }
            xs_.push_back(std::min(x, max_x_));
            ts_.push_back(fn.time(xs_.back()));
        };
        for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
            for (std::size_t s = 0; s < kSamplesPerSegment; ++s) {
                const double t = static_cast<double>(s) /
                                 static_cast<double>(kSamplesPerSegment);
                push_sample(lerp(pts[i].x, pts[i + 1].x, t));
            }
        }
        push_sample(pts.back().x);
        push_sample(max_x_);
        if (xs_.back() < max_x_) {
            xs_.push_back(max_x_);
            ts_.push_back(fn.time(max_x_));
        }

        // Running-max envelope makes time non-decreasing.
        for (std::size_t i = 1; i < ts_.size(); ++i) {
            ts_[i] = std::max(ts_[i], ts_[i - 1]);
        }
    }

    [[nodiscard]] double time(double x) const {
        FPM_CHECK(x >= 0.0, "problem size must be non-negative");
        if (x > max_x_ * (1.0 + 1e-12)) {
            if (x > max_problem_ * (1.0 + 1e-12)) {
                return std::numeric_limits<double>::infinity();
            }
            // Unbounded device past the sampled grid: linear extrapolation at
            // the terminal (clamped) speed.
            return ts_.back() + (x - max_x_) / terminal_speed_;
        }
        const auto upper = std::upper_bound(xs_.begin(), xs_.end(), x);
        if (upper == xs_.end()) {
            return ts_.back();
        }
        if (upper == xs_.begin()) {
            return ts_.front();
        }
        const std::size_t hi = static_cast<std::size_t>(upper - xs_.begin());
        const std::size_t lo = hi - 1;
        if (xs_[hi] == xs_[lo]) {
            return ts_[hi];
        }
        const double f = (x - xs_[lo]) / (xs_[hi] - xs_[lo]);
        return lerp(ts_[lo], ts_[hi], f);
    }

    [[nodiscard]] double invert(double t) const {
        FPM_CHECK(t >= 0.0, "time must be non-negative");
        if (t >= ts_.back()) {
            if (!std::isfinite(max_problem_)) {
                // Unbounded device: keep growing at the terminal speed.
                return max_x_ + (t - ts_.back()) * terminal_speed_;
            }
            return max_x_;
        }
        // Largest index with ts_ <= t; within flat runs pick the rightmost x.
        const auto upper = std::upper_bound(ts_.begin(), ts_.end(), t);
        const std::size_t hi = static_cast<std::size_t>(upper - ts_.begin());
        if (hi == 0) {
            return 0.0;
        }
        const std::size_t lo = hi - 1;
        if (ts_[hi] == ts_[lo]) {
            return xs_[hi];
        }
        const double f = (t - ts_[lo]) / (ts_[hi] - ts_[lo]);
        return lerp(xs_[lo], xs_[hi], f);
    }

    [[nodiscard]] double max_time() const noexcept { return ts_.back(); }

    std::vector<double> xs_;
    std::vector<double> ts_;  // running-max envelope, same length as xs_
    double max_x_ = 0.0;      // end of the sampled grid
    double max_problem_ = 0.0;
    double terminal_speed_ = 0.0;  // clamped speed past the grid
};

/// Every grid value, the midpoints between neighbours, 0, and points past
/// the end of the grid.
std::vector<double> probes(const std::vector<double>& grid) {
    std::vector<double> out = {0.0};
    for (std::size_t i = 0; i < grid.size(); ++i) {
        out.push_back(grid[i]);
        if (i + 1 < grid.size()) {
            out.push_back(0.5 * (grid[i] + grid[i + 1]));
        }
    }
    out.push_back(grid.back() * (1.0 + 1e-13));
    out.push_back(grid.back() * 1.5);
    out.push_back(grid.back() * 100.0);
    return out;
}

/// Probes one view against the reference forwards, then backwards, then
/// in a seeded random order that mixes time(), invert() and marks-only
/// piece() queries, so the view both keeps and swaps its regenerated
/// segment and starts each search from whatever mark the query before it
/// left; returns the probes whose bits differ, as text.
std::string compact_mismatches(const SpeedFunction& fn) {
    const FullGridEnvelope reference(fn);
    MonotoneTime view(fn);
    std::ostringstream out;
    auto same = [](double a, double b) {
        return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
    };
    if (!same(view.max_time(), reference.max_time())) {
        out << " max_time";
    }
    const std::vector<double> xs = probes(reference.xs_);
    const std::vector<double> ts = probes(reference.ts_);
    for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i = 0; i < xs.size(); ++i) {
            const double x = pass == 0 ? xs[i] : xs[xs.size() - 1 - i];
            if (!same(view.time(x), reference.time(x))) {
                out << " time(" << x << ")";
            }
        }
        for (std::size_t i = 0; i < ts.size(); ++i) {
            const double t = pass == 0 ? ts[i] : ts[ts.size() - 1 - i];
            if (!same(view.invert(t), reference.invert(t))) {
                out << " invert(" << t << ")";
            }
        }
    }
    enum class Kind { kTime, kInvert, kMarks };
    std::vector<std::pair<Kind, double>> queries;
    for (const double x : xs) {
        queries.emplace_back(Kind::kTime, x);
    }
    for (const double t : ts) {
        queries.emplace_back(Kind::kInvert, t);
        queries.emplace_back(Kind::kMarks, t);
    }
    Rng rng(fn.points().size());
    for (std::size_t i = queries.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
        std::swap(queries[i - 1], queries[j]);
    }
    for (const auto& [kind, value] : queries) {
        if (kind == Kind::kTime && !same(view.time(value), reference.time(value))) {
            out << " shuffled time(" << value << ")";
        }
        if (kind == Kind::kInvert &&
            !same(view.invert(value), reference.invert(value))) {
            out << " shuffled invert(" << value << ")";
        }
        if (kind == Kind::kMarks) {
            const MonotoneTime::Piece coarse = view.piece(value, true);
            if (!(coarse.t0 <= value && value < coarse.t1)) {
                out << " shuffled marks(" << value << ")";
            }
        }
    }
    return out.str();
}

/// Models whose envelopes exercise every grid shape: one point, a cliff,
/// knots closer than the de-duplication step, capacity bounds cutting the
/// grid at several places, a repeated x in the capacity slack, and the
/// paper's hybrid node under noise.
std::vector<SpeedFunction> envelope_models() {
    std::vector<SpeedFunction> models = {
        SpeedFunction::constant(12.0, "one point"),
        SpeedFunction({{10.0, 10.0}, {49.0, 50.0}, {51.0, 5.0}}, "cliff"),
        // Knots closer together than the grid's 1e-12 de-duplication
        // step, so one grid segment is left empty.
        SpeedFunction({{1.0, 5.0}, {1.0 + 2e-13, 6.0}, {1.0 + 4e-13, 7.0},
                       {2.0, 8.0}},
                      "close knots"),
    };
    const std::vector<SpeedPoint> gpu = {
        {10.0, 10.0}, {40.0, 30.0}, {100.0, 20.0}, {400.0, 25.0}};
    for (const double max_problem : {5.0, 70.0, 400.0, 1000.0}) {
        models.emplace_back(gpu, "bounded", max_problem);
    }
    // Knot subsamples in the 1e-12 relative slack past max_problem all
    // clamp to it, so the grid repeats one x.
    models.emplace_back(std::vector<SpeedPoint>{{1e5, 10.0},
                                                {1e6 + 1e-7, 20.0},
                                                {1e6 + 9e-7, 21.0}},
                        "slack", 1e6);

    sim::SimOptions options;
    options.noise_sigma = 0.03;
    options.noise_seed = 11;
    sim::HybridNode node(sim::ig_platform(), options);
    FpmBuildOptions build;
    build.x_min = 4.0;
    build.x_max = 5200.0;
    build.initial_points = 14;
    build.max_points = 44;
    build.reliability.min_repetitions = 1;
    build.reliability.max_repetitions = 1;
    const auto hybrid =
        app::build_device_fpms(node, app::hybrid_devices(node), build);
    EXPECT_EQ(hybrid.size(), 6u);
    models.insert(models.end(), hybrid.begin(), hybrid.end());
    return models;
}

TEST(MonotoneTime, CompactEnvelopeEqualsTheFullGridBitForBit) {
    for (const SpeedFunction& fn : envelope_models()) {
        EXPECT_EQ(compact_mismatches(fn), "")
            << fn.name() << ", " << fn.points().size() << " knots";
    }
}

/// Walks every piece of the reference grid's inverse, [ts_[j], ts_[j+1])
/// with ts_[j] < ts_[j+1], and the piece past the grid, and returns as
/// text where the view's piece() disagrees: its bounds and slope must be
/// the reference's samples', and its x, at t0 and inside the piece,
/// reference.invert() bit for bit.  The marks-only piece must hold t.
std::string piece_mismatches(const SpeedFunction& fn) {
    const FullGridEnvelope reference(fn);
    MonotoneTime view(fn);
    std::ostringstream out;
    const auto same = [](double a, double b) {
        return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
    };
    const auto& xs = reference.xs_;
    const auto& ts = reference.ts_;
    for (std::size_t j = 0; j + 1 < ts.size(); ++j) {
        // The piece starts at the last sample of a flat run.
        if (ts[j] == ts[j + 1]) {
            continue;
        }
        const double slope = (xs[j + 1] - xs[j]) / (ts[j + 1] - ts[j]);
        for (const double t :
             {ts[j], lerp(ts[j], ts[j + 1], 0.25), lerp(ts[j], ts[j + 1], 0.5),
              std::nextafter(ts[j + 1], 0.0)}) {
            if (t < ts[j]) {
                continue;  // the piece holds one double
            }
            const MonotoneTime::Piece piece = view.piece(t);
            if (!same(piece.t0, ts[j]) || !same(piece.t1, ts[j + 1]) ||
                !same(piece.slope, slope) ||
                !same(piece.x, reference.invert(t)) ||
                !same(view.invert(t), reference.invert(t))) {
                out << " piece(" << t << ")";
            }
            // Linear across the piece: x at t0 extends to x at t.
            const double at_t0 = reference.invert(ts[j]);
            if (std::fabs(at_t0 + slope * (t - ts[j]) - piece.x) >
                1e-9 * (1.0 + piece.x)) {
                out << " linear(" << t << ")";
            }
            const MonotoneTime::Piece coarse = view.piece(t, true);
            if (!(coarse.t0 <= t && t < coarse.t1 && coarse.slope >= 0.0)) {
                out << " marks(" << t << ")";
            }
        }
    }
    const double end = reference.max_time();
    const double terminal =
        std::isfinite(fn.max_problem()) ? 0.0 : reference.terminal_speed_;
    for (const double t : {end, end * 1.5, end * 100.0}) {
        const MonotoneTime::Piece piece = view.piece(t);
        if (!same(piece.t0, end) || !std::isinf(piece.t1) ||
            !same(piece.slope, terminal) ||
            !same(piece.x, reference.invert(t))) {
            out << " past(" << t << ")";
        }
    }
    return out.str();
}

TEST(MonotoneTime, PiecesEqualTheFullGridBitForBit) {
    for (const SpeedFunction& fn : envelope_models()) {
        EXPECT_EQ(piece_mismatches(fn), "")
            << fn.name() << ", " << fn.points().size() << " knots";
    }
}

} // namespace
} // namespace fpm::core
