// Seeded random speed functions shared by the partitioning property
// tests: a ramp to a peak, an optional speed cliff and an optional
// capacity bound.
#pragma once

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "fpm/common/rng.hpp"
#include "fpm/core/speed_function.hpp"

namespace fpm::fuzz {

/// `d<i>`, appended piece by piece: GCC 12 misreports
/// `"d" + std::to_string(i)` under -Wrestrict.
inline std::string device_name(std::size_t i) {
    std::string name = "d";
    name += std::to_string(i);
    return name;
}

/// A random plausible speed function: ramp to a peak, optional cliff,
/// optional capacity bound.
inline core::SpeedFunction random_model(Rng& rng, std::string name) {
    const double peak = rng.uniform(5.0, 500.0);
    const double ramp_half = rng.uniform(0.5, 20.0);
    const bool has_cliff = rng.uniform() < 0.4;
    const double cliff_at = rng.uniform(50.0, 2000.0);
    const double cliff_keep = rng.uniform(0.2, 0.7);
    const bool bounded = rng.uniform() < 0.2;
    const double bound = rng.uniform(500.0, 4000.0);

    std::vector<core::SpeedPoint> points;
    for (double x = 2.0; x <= 4000.0; x *= 1.6) {
        if (bounded && x > bound) {
            break;
        }
        double speed = peak * x / (x + ramp_half);
        if (has_cliff && x > cliff_at) {
            speed *= cliff_keep;
        }
        points.push_back(core::SpeedPoint{x, speed});
    }
    if (points.size() < 2) {
        points = {core::SpeedPoint{1.0, peak}, core::SpeedPoint{2.0, peak}};
    }
    return core::SpeedFunction(std::move(points), std::move(name),
                               bounded ? bound
                                       : std::numeric_limits<double>::infinity());
}

} // namespace fpm::fuzz
