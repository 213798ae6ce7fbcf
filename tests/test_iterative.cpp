// Tests for the shape-aware iterative partitioner: convergence, the
// never-worse-than-one-shot guarantee, and correction of models that
// mispredict on non-square rectangles.
#include <gtest/gtest.h>

#include <cmath>

#include "fpm/common/rng.hpp"
#include "fpm/part/iterative.hpp"
#include "fpm/sim/node.hpp"

namespace fpm::part {
namespace {

using core::SpeedFunction;

/// Shape oracle that matches the area models exactly (no shape effect).
RectTimeFn area_only_oracle(std::vector<SpeedFunction> models) {
    return [models = std::move(models)](std::size_t device, const Rect& rect) {
        return models[device].time(static_cast<double>(rect.area()));
    };
}

TEST(Iterative, NoShapeEffectConvergesImmediately) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction::constant(10.0, "a"),
        SpeedFunction::constant(30.0, "b"),
    };
    const auto result =
        partition_iterative(models, 20, area_only_oracle(models));
    EXPECT_TRUE(result.converged);
    EXPECT_LE(result.rounds, 2U);
    EXPECT_EQ(result.blocks.total(), 400);
    // Proportional split survives the loop.
    EXPECT_NEAR(static_cast<double>(result.blocks.blocks[1]) /
                    static_cast<double>(result.blocks.blocks[0]),
                3.0, 0.2);
}

TEST(Iterative, CorrectsShapeSensitiveDevice) {
    // Device 0 is area-fast but pays a heavy penalty on wide rectangles
    // (akin to a GPU whose pivot-row traffic scales with width); the area
    // model alone overloads it.
    const std::vector<SpeedFunction> models = {
        SpeedFunction::constant(40.0, "wide-penalised"),
        SpeedFunction::constant(20.0, "steady"),
    };
    const RectTimeFn oracle = [&](std::size_t device, const Rect& rect) {
        const double area_time =
            models[device].time(static_cast<double>(rect.area()));
        if (device == 0) {
            // +4 % per block of width: wide rectangles are slow.
            return area_time * (1.0 + 0.04 * static_cast<double>(rect.w));
        }
        return area_time;
    };

    const std::int64_t n = 24;
    const auto one_shot = [&]() {
        const auto continuous =
            partition_fpm(models, static_cast<double>(n) * n);
        const auto blocks = round_partition(continuous.partition, n * n, models);
        const auto layout = column_partition(n, blocks.blocks);
        double worst = 0.0;
        for (std::size_t i = 0; i < layout.rects.size(); ++i) {
            if (layout.rects[i].area() > 0) {
                worst = std::max(worst, oracle(i, layout.rects[i]));
            }
        }
        return worst;
    }();

    const auto refined = partition_iterative(models, n, oracle);
    EXPECT_LE(refined.makespan, one_shot + 1e-12);
    EXPECT_LT(refined.makespan, 0.95 * one_shot)
        << "refinement should visibly rebalance a 4%/width-block penalty";
    EXPECT_EQ(refined.blocks.total(), n * n);
    EXPECT_NO_THROW(refined.layout.validate());
}

TEST(Iterative, NeverWorseThanFirstRound) {
    // Even with an adversarial non-monotone oracle the best-seen layout is
    // returned.
    const std::vector<SpeedFunction> models = {
        SpeedFunction::constant(10.0, "a"),
        SpeedFunction::constant(10.0, "b"),
        SpeedFunction::constant(10.0, "c"),
    };
    fpm::Rng rng(3);
    const RectTimeFn oracle = [&models, &rng](std::size_t device,
                                              const Rect& rect) mutable {
        return models[device].time(static_cast<double>(rect.area())) *
               rng.uniform(0.8, 1.25);
    };
    const auto result = partition_iterative(models, 12, oracle);
    EXPECT_GT(result.makespan, 0.0);
    EXPECT_EQ(result.blocks.total(), 144);
}

TEST(Iterative, StopsAfterSixRounds) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction::constant(10.0, "a"),
        SpeedFunction::constant(20.0, "b"),
    };
    // An oracle that runs faster on every call improves the makespan by
    // far more than 0.5 % each round, so only the round cap stops it.
    int calls = 0;
    const RectTimeFn oracle = [&](std::size_t device, const Rect& rect) {
        return models[device].time(static_cast<double>(rect.area())) *
               std::pow(0.8, ++calls);
    };
    const auto result = partition_iterative(models, 10, oracle);
    EXPECT_EQ(result.rounds, 6U);
    EXPECT_FALSE(result.converged);
}

TEST(Iterative, Validation) {
    const std::vector<SpeedFunction> models = {SpeedFunction::constant(1.0)};
    EXPECT_THROW(partition_iterative({}, 10, area_only_oracle(models)),
                 fpm::Error);
    EXPECT_THROW(partition_iterative(models, 0, area_only_oracle(models)),
                 fpm::Error);
    EXPECT_THROW(partition_iterative(models, 10, nullptr), fpm::Error);
}

TEST(Iterative, SimulatedHybridNodeEndToEnd) {
    // The real use: area FPMs of the simulated node + the simulator as the
    // shape oracle.  The loop must terminate and produce a valid layout
    // whose makespan is within a whisker of the area-based one (shapes on
    // this platform are near-square, as the paper argues).
    sim::HybridNode node(sim::ig_platform(), {});
    const std::vector<SpeedFunction> models = {
        // Hand-sampled area models of the two GPUs + two sockets.
        SpeedFunction({{100.0, 350.0}, {800.0, 380.0}, {2000.0, 250.0}}, "g1"),
        SpeedFunction({{100.0, 90.0}, {800.0, 95.0}}, "g2"),
        SpeedFunction({{100.0, 45.0}, {800.0, 46.0}}, "s0"),
        SpeedFunction({{100.0, 45.0}, {800.0, 46.0}}, "s1"),
    };
    const RectTimeFn oracle = [&node](std::size_t device, const Rect& rect) {
        if (device == 0) {
            return node.gpu_sim(1)
                .time_invocation(rect.w, rect.h, sim::KernelVersion::kV3)
                .total_s;
        }
        if (device == 1) {
            return node.gpu_sim(0)
                .time_invocation(rect.w, rect.h, sim::KernelVersion::kV3)
                .total_s;
        }
        return node.cpu_kernel_time(device - 2, 6,
                                    static_cast<double>(rect.area()));
    };
    const auto result = partition_iterative(models, 40, oracle);
    EXPECT_EQ(result.blocks.total(), 1600);
    EXPECT_GT(result.makespan, 0.0);
    EXPECT_NO_THROW(result.layout.validate());
}

} // namespace
} // namespace fpm::part
