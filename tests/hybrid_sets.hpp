// Simulator-measured model sets of the paper's hybrid node shared by the
// partitioning tests: the node built as the paper benches build it, and
// the noisy 6- and 24-device sets the service benchmark plans on.
#pragma once

#include <cstdint>
#include <vector>

#include "fpm/app/device_set.hpp"
#include "fpm/core/speed_function.hpp"
#include "fpm/sim/specs.hpp"

namespace fpm::testsets {

/// FPMs of the paper's hybrid node (2 GPUs + 4 socket groups) built from
/// a simulator run with `options`, one timing per point.
inline std::vector<core::SpeedFunction>
hybrid_fpms(const sim::SimOptions& options, double refine_tolerance) {
    sim::HybridNode node(sim::ig_platform(), options);
    core::FpmBuildOptions build;
    build.x_min = 4.0;
    build.x_max = 5200.0;
    build.initial_points = 14;
    build.max_points = 44;
    build.refine_tolerance = refine_tolerance;
    build.reliability.min_repetitions = 1;
    build.reliability.max_repetitions = 1;
    return app::build_device_fpms(node, app::hybrid_devices(node), build);
}

/// The node measured under 3 % simulator noise with a fixed seed.
inline std::vector<core::SpeedFunction> noisy_hybrid(std::uint64_t noise_seed) {
    sim::SimOptions options;
    options.noise_sigma = 0.03;
    options.noise_seed = noise_seed;
    return hybrid_fpms(options, core::FpmBuildOptions{}.refine_tolerance);
}

/// A 6-device set measured with `seed`, and a 24-device set of four nodes
/// measured with `first_seed`.. `first_seed` + 3: the shapes the service
/// benchmark plans on.
inline std::vector<std::vector<core::SpeedFunction>>
hybrid_sets(std::uint64_t seed, std::uint64_t first_seed) {
    std::vector<std::vector<core::SpeedFunction>> sets{noisy_hybrid(seed), {}};
    for (std::uint64_t node = 0; node < 4; ++node) {
        const auto part = noisy_hybrid(first_seed + node);
        sets[1].insert(sets[1].end(), part.begin(), part.end());
    }
    return sets;
}

} // namespace fpm::testsets
