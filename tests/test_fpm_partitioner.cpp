// Tests for the FPM-based geometric partitioner (Lastovetsky & Reddy):
// conservation, balance, optimality against brute force, capacity limits,
// degenerate inputs, and a pin of the full pipeline's plans.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "fpm/app/device_set.hpp"
#include "fpm/common/hash.hpp"
#include "fpm/core/speed_function.hpp"
#include "fpm/part/fpm_partitioner.hpp"
#include "fpm/part/integer.hpp"
#include "fpm/part/request.hpp"
#include "fpm/sim/specs.hpp"

namespace fpm::part {
namespace {

using core::SpeedFunction;
using core::SpeedPoint;

std::vector<SpeedFunction> two_constant_devices() {
    return {SpeedFunction::constant(10.0, "slow"),
            SpeedFunction::constant(30.0, "fast")};
}

TEST(FpmPartitioner, ConstantSpeedsReduceToProportional) {
    const auto models = two_constant_devices();
    const auto result = partition_fpm(models, 400.0);
    EXPECT_NEAR(result.partition.share[0], 100.0, 1e-6);
    EXPECT_NEAR(result.partition.share[1], 300.0, 1e-6);
    EXPECT_NEAR(result.balanced_time, 10.0, 1e-6);
}

TEST(FpmPartitioner, SharesSumToTotal) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 5.0}, {100.0, 20.0}, {500.0, 18.0}}, "a"),
        SpeedFunction({{10.0, 50.0}, {300.0, 80.0}}, "b"),
        SpeedFunction::constant(7.0, "c"),
    };
    for (double total : {1.0, 57.0, 333.3, 4096.0}) {
        const auto result = partition_fpm(models, total);
        EXPECT_NEAR(result.partition.total(), total, 1e-6 * total)
            << "total=" << total;
        for (const double share : result.partition.share) {
            EXPECT_GE(share, 0.0);
        }
    }
}

TEST(FpmPartitioner, EqualisesExecutionTimes) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 5.0}, {100.0, 20.0}, {500.0, 25.0}}, "a"),
        SpeedFunction({{10.0, 40.0}, {400.0, 90.0}}, "b"),
    };
    const auto result = partition_fpm(models, 600.0);
    const double t0 = models[0].time(result.partition.share[0]);
    const double t1 = models[1].time(result.partition.share[1]);
    EXPECT_NEAR(t0, t1, 0.05 * std::max(t0, t1));
    EXPECT_NEAR(result.balanced_time, std::max(t0, t1),
                0.05 * std::max(t0, t1));
}

TEST(FpmPartitioner, NearOptimalAgainstBruteForce) {
    // Discretised exhaustive search over all splits of 200 blocks between
    // two non-trivial devices; the geometric solution's makespan must be
    // within a hair of the discrete optimum.
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{5.0, 8.0}, {50.0, 30.0}, {200.0, 26.0}}, "cpu"),
        SpeedFunction({{5.0, 60.0}, {80.0, 90.0}, {120.0, 40.0}}, "gpu"),
    };
    const std::int64_t total = 200;

    double best = 1e300;
    for (std::int64_t x = 0; x <= total; ++x) {
        const std::vector<double> shares = {static_cast<double>(x),
                                            static_cast<double>(total - x)};
        best = std::min(best, makespan(models, shares));
    }

    const auto result = partition_fpm(models, static_cast<double>(total));
    const double achieved = makespan(models, result.partition.share);
    EXPECT_LE(achieved, best * 1.02);
}

TEST(FpmPartitioner, BoundedDeviceSaturatesAtCapacity) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 100.0}, {50.0, 100.0}}, "gpu", 60.0),  // cap 60
        SpeedFunction::constant(1.0, "cpu"),
    };
    const auto result = partition_fpm(models, 200.0);
    EXPECT_LE(result.partition.share[0], 60.0 + 1e-9);
    EXPECT_NEAR(result.partition.total(), 200.0, 1e-6);
    // The slow CPU carries the overflow even though it is 100x slower.
    EXPECT_GE(result.partition.share[1], 140.0 - 1e-6);
}

TEST(FpmPartitioner, ThrowsWhenCapacityInsufficient) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 10.0}}, "g1", 50.0),
        SpeedFunction({{10.0, 10.0}}, "g2", 30.0),
    };
    EXPECT_THROW(partition_fpm(models, 100.0), fpm::Error);
    EXPECT_NO_THROW(partition_fpm(models, 80.0));
}

TEST(FpmPartitioner, SingleDeviceTakesAll) {
    const std::vector<SpeedFunction> models = {SpeedFunction::constant(3.0)};
    const auto result = partition_fpm(models, 42.0);
    EXPECT_NEAR(result.partition.share[0], 42.0, 1e-9);
    EXPECT_NEAR(result.balanced_time, 14.0, 1e-6);
}

TEST(FpmPartitioner, ZeroTotal) {
    const auto models = two_constant_devices();
    const auto result = partition_fpm(models, 0.0);
    EXPECT_DOUBLE_EQ(result.partition.total(), 0.0);
    EXPECT_DOUBLE_EQ(result.balanced_time, 0.0);
}

TEST(FpmPartitioner, Validation) {
    EXPECT_THROW(partition_fpm({}, 10.0), fpm::Error);
    const auto models = two_constant_devices();
    EXPECT_THROW(partition_fpm(models, -5.0), fpm::Error);
}

TEST(FpmPartitioner, HandlesCliffDevices) {
    // A GPU-like device whose speed collapses past a memory limit: the
    // partitioner must not overload it (the paper's central claim).
    std::vector<SpeedPoint> gpu_points;
    for (double x = 10.0; x <= 1000.0; x += 30.0) {
        const double speed = (x <= 500.0) ? 90.0 : 25.0;
        gpu_points.push_back(SpeedPoint{x, speed});
    }
    const std::vector<SpeedFunction> models = {
        SpeedFunction(gpu_points, "gpu"),
        SpeedFunction::constant(30.0, "cpu"),
    };

    // Small problem: GPU is 3x the CPU, gets ~75 %.
    const auto small = partition_fpm(models, 400.0);
    EXPECT_GT(small.partition.share[0], 0.70 * 400.0);

    // Large problem: the balanced solution stops overloading the GPU.
    const auto large = partition_fpm(models, 1600.0);
    const double t_gpu = models[0].time(large.partition.share[0]);
    const double t_cpu = models[1].time(large.partition.share[1]);
    EXPECT_NEAR(t_gpu, t_cpu, 0.1 * std::max(t_gpu, t_cpu));
    // A CPM model built at small sizes (speed 90) would give the GPU 75 %
    // = 1200 blocks, taking 1200/25 = 48 s vs the balanced ~29 s.
    EXPECT_LT(std::max(t_gpu, t_cpu), 35.0);
}

TEST(FpmPartitioner, ManyDevicesStressAndConservation) {
    std::vector<SpeedFunction> models;
    for (int i = 0; i < 24; ++i) {
        models.push_back(
            SpeedFunction::constant(1.0 + static_cast<double>(i % 7)));
    }
    const auto result = partition_fpm(models, 10000.0);
    EXPECT_NEAR(result.partition.total(), 10000.0, 1e-3);
    // Faster devices get strictly more.
    EXPECT_GT(result.partition.share[6], result.partition.share[0]);
}

TEST(FpmPartitioner, IterationsReported) {
    const auto models = two_constant_devices();
    const auto result = partition_fpm(models, 100.0);
    EXPECT_GE(result.iterations, 1U);
    EXPECT_LE(result.iterations, 200U);
}

TEST(PartitionRequestBound, PlansUpToKMaxNAndThrowsAbove) {
    const auto models = two_constant_devices();
    const PartitionPlan plan =
        partition(PartitionRequest{models, kMaxN, Algorithm::kFpm, true});
    EXPECT_EQ(plan.blocks[0] + plan.blocks[1], kMaxN * kMaxN);
    EXPECT_EQ(plan.blocks[1], 3 * plan.blocks[0]);
    // Past kMaxN a block count may round in a double; from 3,037,000,500
    // n * n overflows int64.
    for (const std::int64_t n : {kMaxN + 1, std::int64_t{3037000500}}) {
        const PartitionRequest request{models, n, Algorithm::kFpm, true};
        EXPECT_THROW((void)partition(request), fpm::Error) << n;
    }
}

/// FPMs of the paper's hybrid node (2 GPUs + 4 socket groups) measured
/// under 3 % simulator noise with a fixed seed.
std::vector<SpeedFunction> noisy_hybrid(std::uint64_t noise_seed) {
    sim::SimOptions options;
    options.noise_sigma = 0.03;
    options.noise_seed = noise_seed;
    sim::HybridNode node(sim::ig_platform(), options);
    core::FpmBuildOptions build;
    build.x_min = 4.0;
    build.x_max = 5200.0;
    build.initial_points = 14;
    build.max_points = 44;
    build.reliability.min_repetitions = 1;
    build.reliability.max_repetitions = 1;
    return app::build_device_fpms(node, app::hybrid_devices(node), build);
}

/// Little-endian bytes of one word folded into a running FNV-1a hash.
void fold(std::uint64_t& hash, std::uint64_t word) {
    char bytes[8];
    for (int i = 0; i < 8; ++i) {
        bytes[i] = static_cast<char>(word >> (8 * i));
    }
    hash = fnv1a(std::string_view(bytes, sizeof bytes), hash);
}

TEST(PartitionPin, PlansMatchTheRecordedDigest) {
    // 810 plans (n = 16..150; fpm, cpm and even; with layout) on a 6- and
    // a 24-device set.  The literal was recorded when the bisection's
    // tolerance, iteration cap and envelope grid were still options at
    // today's values; a new solver must reproduce it unless it means to
    // move plans.
    std::vector<std::vector<SpeedFunction>> sets{noisy_hybrid(11), {}};
    for (std::uint64_t node = 0; node < 4; ++node) {
        const auto part = noisy_hybrid(100 + node);
        sets[1].insert(sets[1].end(), part.begin(), part.end());
    }
    ASSERT_EQ(sets[0].size(), 6u);
    ASSERT_EQ(sets[1].size(), 24u);
    std::uint64_t hash = kFnv1aOffset;
    for (const auto& models : sets) {
        for (std::int64_t n = 16; n <= 150; ++n) {
            for (const Algorithm algorithm :
                 {Algorithm::kFpm, Algorithm::kCpm, Algorithm::kEven}) {
                const PartitionPlan plan =
                    partition(PartitionRequest{models, n, algorithm, true});
                for (const std::int64_t blocks : plan.blocks) {
                    fold(hash, static_cast<std::uint64_t>(blocks));
                }
                for (const Rect& rect : plan.layout.rects) {
                    for (const std::int64_t v :
                         {rect.col0, rect.row0, rect.w, rect.h}) {
                        fold(hash, static_cast<std::uint64_t>(v));
                    }
                }
                fold(hash, std::bit_cast<std::uint64_t>(plan.balanced_time));
                fold(hash, std::bit_cast<std::uint64_t>(plan.makespan));
            }
        }
    }
    EXPECT_EQ(hash, 0x8ed318bb0ac528ebULL) << "digest now 0x" << std::hex
                                           << hash;
}

} // namespace
} // namespace fpm::part
