// Tests for integer rounding of continuous partitions: largest-remainder
// conservation and tie order, and the exact floor-plus-greedy rounding of
// FPM partitions under capacity bounds.
#include <gtest/gtest.h>

#include "fpm/part/fpm_partitioner.hpp"
#include "fpm/part/integer.hpp"

namespace fpm::part {
namespace {

using core::SpeedFunction;

TEST(LargestRemainder, PreservesTotalExactly) {
    Partition1D p;
    p.share = {10.4, 20.3, 30.3};  // sums to 61
    const auto rounded = round_largest_remainder(p, 61);
    EXPECT_EQ(rounded.total(), 61);
    // Each device within one block of its continuous share.
    EXPECT_NEAR(static_cast<double>(rounded.blocks[0]), 10.4, 1.0);
    EXPECT_NEAR(static_cast<double>(rounded.blocks[1]), 20.3, 1.0);
    EXPECT_NEAR(static_cast<double>(rounded.blocks[2]), 30.3, 1.0);
}

TEST(LargestRemainder, LargestFractionsWin) {
    Partition1D p;
    p.share = {1.9, 1.1, 1.0};  // sums to 4
    const auto rounded = round_largest_remainder(p, 4);
    EXPECT_EQ(rounded.blocks[0], 2);
    EXPECT_EQ(rounded.blocks[1], 1);
    EXPECT_EQ(rounded.blocks[2], 1);
}

TEST(LargestRemainder, ExactIntegersPassThrough) {
    Partition1D p;
    p.share = {5.0, 7.0, 0.0};
    const auto rounded = round_largest_remainder(p, 12);
    EXPECT_EQ(rounded.blocks[0], 5);
    EXPECT_EQ(rounded.blocks[1], 7);
    EXPECT_EQ(rounded.blocks[2], 0);
}

TEST(LargestRemainder, EqualRemaindersGoToLowerIndices) {
    // 24 equal shares of 256 blocks: 10 each, and the 16 left over go to
    // devices 0..15, past the 16 elements an unstable sort keeps in order.
    Partition1D p;
    p.share.assign(24, 256.0 / 24.0);
    const auto rounded = round_largest_remainder(p, 256);
    for (std::size_t i = 0; i < 24; ++i) {
        EXPECT_EQ(rounded.blocks[i], i < 16 ? 11 : 10) << "device " << i;
    }
}

TEST(LargestRemainder, Validation) {
    Partition1D empty;
    EXPECT_THROW(round_largest_remainder(empty, 10), fpm::Error);
    Partition1D negative;
    negative.share = {-1.0, 2.0};
    EXPECT_THROW(round_largest_remainder(negative, 1), fpm::Error);
    Partition1D mismatched;
    mismatched.share = {1.0, 2.0};  // sums to 3, asked for 10
    EXPECT_THROW(round_largest_remainder(mismatched, 10), fpm::Error);
    Partition1D overfull;
    overfull.share = {6.0, 6.0};
    EXPECT_THROW(round_largest_remainder(overfull, 10), fpm::Error);
}

TEST(RoundPartition, KeepsSumAndRespectsCapacity) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{1.0, 10.0}, {100.0, 10.0}}, "gpu", 50.0),
        SpeedFunction::constant(5.0, "cpu"),
    };
    Partition1D p;
    p.share = {49.6, 50.4};
    const auto rounded = round_partition(p, 100, models);
    EXPECT_EQ(rounded.total(), 100);
    EXPECT_LE(static_cast<double>(rounded.blocks[0]), 50.0);
}

TEST(RoundPartition, EqualDevicesDoNotStallTheRounding) {
    // 7 blocks on speeds 1, 1 and 8: the shares are 0.7, 0.7 and 5.6.
    // Largest remainder gives each slow device a block (1 s apiece), and
    // moving either block alone leaves the other at 1 s; the optimum gives
    // both to the fast device, 7 / 8 s.
    const std::vector<SpeedFunction> models = {
        SpeedFunction::constant(1.0, "a"),
        SpeedFunction::constant(1.0, "b"),
        SpeedFunction::constant(8.0, "fast"),
    };
    const auto continuous = partition_fpm(models, 7.0);
    EXPECT_EQ(round_largest_remainder(continuous.partition, 7).blocks,
              (std::vector<std::int64_t>{1, 1, 5}));
    const auto rounded = round_partition(continuous.partition, 7, models);
    EXPECT_EQ(rounded.blocks, (std::vector<std::int64_t>{0, 0, 7}));
    EXPECT_DOUBLE_EQ(rounded.makespan, 0.875);
}

TEST(RoundPartition, EqualTimesGoToTheLowerIndex) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction::constant(1.0), SpeedFunction::constant(1.0),
        SpeedFunction::constant(1.0)};
    Partition1D p;
    p.share = {1.5, 1.5, 1.0};
    const auto rounded = round_partition(p, 4, models);
    EXPECT_EQ(rounded.blocks, (std::vector<std::int64_t>{2, 1, 1}));
    EXPECT_DOUBLE_EQ(rounded.makespan, 2.0);
}

TEST(RoundPartition, MakespanIsTheEnvelopes) {
    // Raw time falls from 1 s at 10 blocks to 0.5 s at 20; the plan's
    // makespan reads the envelope, 1 s.
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 10.0}, {20.0, 40.0}}, "ramp"),
        SpeedFunction::constant(100.0, "fast"),
    };
    Partition1D p;
    p.share = {20.0, 30.0};
    const auto rounded = round_partition(p, 50, models);
    EXPECT_EQ(rounded.blocks, (std::vector<std::int64_t>{20, 30}));
    EXPECT_DOUBLE_EQ(rounded.makespan, 1.0);
    EXPECT_DOUBLE_EQ(rounded.makespan,
                     makespan(models,
                              std::span<const std::int64_t>(rounded.blocks)));
}

TEST(RoundPartition, LeftoverBlocksSkipFullDevices) {
    // The GPU holds at most 10 blocks, so the leftover block goes to the
    // CPU although the GPU would finish it sooner.
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{1.0, 100.0}}, "gpu", 10.0),
        SpeedFunction::constant(1.0, "cpu"),
    };
    Partition1D p;
    p.share = {10.0, 9.4};
    const auto rounded = round_partition(p, 20, models);
    EXPECT_EQ(rounded.blocks, (std::vector<std::int64_t>{10, 10}));

    // At 10^13 blocks the envelope's 1e-12 relative slack past capacity
    // would admit ten more; the capacity admits none.
    const std::vector<SpeedFunction> huge = {
        SpeedFunction({{1.0, 1e9}}, "gpu", 1e13),
        SpeedFunction::constant(1e-6, "cpu"),
    };
    Partition1D full;
    full.share = {1e13, 0.5};
    EXPECT_EQ(round_partition(full, 10'000'000'000'001, huge).blocks,
              (std::vector<std::int64_t>{10'000'000'000'000, 1}));
}

TEST(RoundPartition, CapacityViolationsThrow) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{1.0, 10.0}}, "g1", 5.0),
        SpeedFunction({{1.0, 10.0}}, "g2", 5.0),
    };
    Partition1D p;
    p.share = {5.0, 5.0};
    EXPECT_NO_THROW(round_partition(p, 10, models));

    // A floor past its device's capacity.
    Partition1D overflow;
    overflow.share = {6.0, 4.0};
    EXPECT_THROW(round_partition(overflow, 10, models), fpm::Error);

    // A leftover block that fits no device: capacities 5.5 + 4.5 hold
    // only 9 whole blocks.
    const std::vector<SpeedFunction> fractional = {
        SpeedFunction({{1.0, 10.0}}, "g1", 5.5),
        SpeedFunction({{1.0, 10.0}}, "g2", 4.5),
    };
    Partition1D full;
    full.share = {5.5, 4.5};
    EXPECT_THROW(round_partition(full, 10, fractional), fpm::Error);
}

TEST(RoundPartition, ZeroBlocksForZeroShares) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction::constant(1.0),
        SpeedFunction::constant(1.0),
    };
    Partition1D p;
    p.share = {0.0, 4.0};
    const auto rounded = round_partition(p, 4, models);
    EXPECT_EQ(rounded.blocks[0] + rounded.blocks[1], 4);
}

TEST(RoundPartition, MoreDevicesThanBlocks) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction::constant(1.0), SpeedFunction::constant(1.0),
        SpeedFunction::constant(1.0), SpeedFunction::constant(1.0),
        SpeedFunction::constant(1.0)};
    Partition1D p;
    p.share = {0.4, 0.4, 0.4, 0.4, 0.4};
    const auto rounded = round_partition(p, 2, models);
    EXPECT_EQ(rounded.total(), 2);
    for (const auto blocks : rounded.blocks) {
        EXPECT_GE(blocks, 0);
        EXPECT_LE(blocks, 1);
    }
}

} // namespace
} // namespace fpm::part
