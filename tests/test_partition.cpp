// Tests for the simple partitioners (homogeneous, CPM) and the makespan
// evaluator.
#include <gtest/gtest.h>

#include <numeric>

#include "fpm/part/partition.hpp"

namespace fpm::part {
namespace {

TEST(Homogeneous, EqualShares) {
    const Partition1D p = partition_homogeneous(4, 100.0);
    ASSERT_EQ(p.share.size(), 4U);
    for (const double share : p.share) {
        EXPECT_DOUBLE_EQ(share, 25.0);
    }
    EXPECT_DOUBLE_EQ(p.total(), 100.0);
}

TEST(Homogeneous, Validation) {
    EXPECT_THROW(partition_homogeneous(0, 10.0), fpm::Error);
    EXPECT_THROW(partition_homogeneous(2, -1.0), fpm::Error);
    EXPECT_DOUBLE_EQ(partition_homogeneous(3, 0.0).total(), 0.0);
}

TEST(Cpm, ProportionalToSpeeds) {
    const std::vector<double> speeds = {10.0, 30.0, 60.0};
    const Partition1D p = partition_cpm(speeds, 200.0);
    EXPECT_DOUBLE_EQ(p.share[0], 20.0);
    EXPECT_DOUBLE_EQ(p.share[1], 60.0);
    EXPECT_DOUBLE_EQ(p.share[2], 120.0);
    EXPECT_DOUBLE_EQ(p.total(), 200.0);
}

TEST(Cpm, ZeroSpeedDeviceGetsNothing) {
    const std::vector<double> speeds = {0.0, 50.0};
    const Partition1D p = partition_cpm(speeds, 100.0);
    EXPECT_DOUBLE_EQ(p.share[0], 0.0);
    EXPECT_DOUBLE_EQ(p.share[1], 100.0);
}

TEST(Cpm, Validation) {
    EXPECT_THROW(partition_cpm(std::vector<double>{}, 10.0), fpm::Error);
    EXPECT_THROW(partition_cpm(std::vector<double>{-1.0, 2.0}, 10.0), fpm::Error);
    EXPECT_THROW(partition_cpm(std::vector<double>{0.0, 0.0}, 10.0), fpm::Error);
}

TEST(Cpm, BalancesConstantSpeedDevicesExactly) {
    // For genuinely constant-speed devices, proportional distribution is
    // the balanced optimum: every device finishes at the same time.
    const std::vector<double> speeds = {5.0, 7.5, 12.0, 40.0};
    const Partition1D p = partition_cpm(speeds, 1000.0);
    for (std::size_t i = 0; i < speeds.size(); ++i) {
        EXPECT_NEAR(p.share[i] / speeds[i], 1000.0 / (5.0 + 7.5 + 12.0 + 40.0),
                    1e-9);
    }
}

TEST(Makespan, MaxOverBusyDevices) {
    const std::vector<core::SpeedFunction> models = {
        core::SpeedFunction::constant(10.0),
        core::SpeedFunction::constant(5.0),
    };
    const std::vector<double> shares = {10.0, 20.0};
    EXPECT_DOUBLE_EQ(makespan(models, shares), 4.0);

    const std::vector<double> idle = {10.0, 0.0};
    EXPECT_DOUBLE_EQ(makespan(models, idle), 1.0);
}

TEST(Makespan, IntegerOverload) {
    const std::vector<core::SpeedFunction> models = {
        core::SpeedFunction::constant(4.0),
    };
    const std::vector<std::int64_t> shares = {8};
    EXPECT_DOUBLE_EQ(makespan(models, std::span<const std::int64_t>(shares)),
                     2.0);
}

TEST(Makespan, ReadsTheMonotoneEnvelope) {
    // The speed ramps up four-fold from x = 10 to 20, so raw time falls
    // from 1 s to 0.5 s; the envelope keeps its running maximum, 1 s.
    const std::vector<core::SpeedFunction> models = {
        core::SpeedFunction({{10.0, 10.0}, {20.0, 40.0}}),
    };
    EXPECT_DOUBLE_EQ(models[0].time(20.0), 0.5);
    const std::vector<double> shares = {20.0};
    EXPECT_DOUBLE_EQ(makespan(models, shares), 1.0);
}

TEST(Makespan, Validation) {
    const std::vector<core::SpeedFunction> models = {
        core::SpeedFunction::constant(4.0),
    };
    const std::vector<double> wrong_size = {1.0, 2.0};
    EXPECT_THROW(makespan(models, wrong_size), fpm::Error);
    const std::vector<double> negative = {-1.0};
    EXPECT_THROW(makespan(models, negative), fpm::Error);
}

} // namespace
} // namespace fpm::part
