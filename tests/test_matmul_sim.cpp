// Tests for the simulated application runner: timing structure, contention
// wiring, communication modelling and the per-process expansion of Fig. 6.
#include <gtest/gtest.h>

#include <numeric>

#include "fpm/app/matmul_sim.hpp"

namespace fpm::app {
namespace {

class MatmulSimTest : public ::testing::Test {
protected:
    sim::HybridNode node_{sim::ig_platform(), {}};

    /// Column layout of n x n blocks spread as evenly as they go.
    static part::ColumnLayout even_layout(std::size_t devices, std::int64_t n) {
        std::vector<std::int64_t> areas(devices, n * n / static_cast<std::int64_t>(devices));
        std::int64_t leftover = n * n - std::accumulate(areas.begin(), areas.end(),
                                                        std::int64_t{0});
        for (std::int64_t i = 0; i < leftover; ++i) {
            ++areas[static_cast<std::size_t>(i) % devices];
        }
        return part::column_partition(n, areas);
    }
};

TEST_F(MatmulSimTest, CpuOnlyHomogeneousRun) {
    const DeviceSet set = cpu_only_devices(node_);
    const auto result =
        run_simulated_app(node_, set, even_layout(set.devices.size(), 40));

    EXPECT_GT(result.total_time, 0.0);
    EXPECT_GT(result.comm_time, 0.0);
    EXPECT_NEAR(result.total_time, result.compute_time + result.comm_time, 1e-9);
    // Equal sockets, equal areas: all devices take the same time.
    for (std::size_t i = 1; i < result.device_iter_time.size(); ++i) {
        EXPECT_NEAR(result.device_iter_time[i], result.device_iter_time[0],
                    0.05 * result.device_iter_time[0]);
    }
    // Paper's Table II scale: ~90-100 s for n = 40 on 24 cores.
    EXPECT_GT(result.total_time, 60.0);
    EXPECT_LT(result.total_time, 140.0);
}

TEST_F(MatmulSimTest, SingleGpuRunExercisesOutOfCore) {
    const DeviceSet set = single_gpu_devices(node_, 1, sim::KernelVersion::kV2);
    const std::int64_t n = 60;  // 3600 blocks: out of core for the GTX680
    const auto result = run_simulated_app(node_, set, even_layout(1, n));
    EXPECT_GT(result.total_time, 0.0);
    // A single process has no one to talk to.
    EXPECT_DOUBLE_EQ(result.comm_time, 0.0);
}

TEST_F(MatmulSimTest, GpuContentionAppliedInHybridRuns) {
    // The same GPU rectangle runs slower inside the hybrid set (cores of
    // its socket are busy) than the idle-socket kernel timing.
    const DeviceSet hybrid = hybrid_devices(node_);

    std::size_t gtx = hybrid.devices.size();
    for (std::size_t i = 0; i < hybrid.devices.size(); ++i) {
        if (hybrid.devices[i].kind == DeviceKind::kGpu &&
            hybrid.devices[i].gpu_index == 1) {
            gtx = i;
        }
    }
    ASSERT_LT(gtx, hybrid.devices.size());

    const std::int64_t n = 40;
    std::vector<std::int64_t> areas(hybrid.devices.size(), 0);
    areas[gtx] = 800;
    // Spread the rest over the CPU sockets so they are genuinely busy.
    std::int64_t rest = n * n - 800;
    for (std::size_t i = 0; i < areas.size() && rest > 0; ++i) {
        if (hybrid.devices[i].kind == DeviceKind::kCpuSocket) {
            const std::int64_t take = std::min<std::int64_t>(rest, 250);
            areas[i] = take;
            rest -= take;
        }
    }
    ASSERT_EQ(rest, 0);

    const auto layout = part::column_partition(n, areas);
    const auto hybrid_result = run_simulated_app(node_, hybrid, layout);
    const part::Rect rect = layout.rects[gtx];
    const double idle = node_.gpu_sim(1)
                            .time_invocation(rect.w, rect.h,
                                             sim::KernelVersion::kV3)
                            .total_s;
    EXPECT_GT(hybrid_result.device_iter_time[gtx], 1.05 * idle);
}

TEST_F(MatmulSimTest, DeviceComputeTimesScaleWithIterations) {
    const DeviceSet set = cpu_only_devices(node_);
    const auto result =
        run_simulated_app(node_, set, even_layout(set.devices.size(), 24));
    for (std::size_t i = 0; i < set.devices.size(); ++i) {
        EXPECT_NEAR(result.device_compute_time[i],
                    result.device_iter_time[i] * 24.0, 1e-9);
    }
}

TEST_F(MatmulSimTest, PerProcessExpansionMatchesPaperRankOrder) {
    const DeviceSet set = hybrid_devices(node_);
    std::vector<double> device_times(set.devices.size());
    // Give each device a recognisable time: GPUs 1.0/2.0, sockets 0.1*s.
    for (std::size_t i = 0; i < set.devices.size(); ++i) {
        const Device& d = set.devices[i];
        device_times[i] = (d.kind == DeviceKind::kGpu)
                              ? 1.0 + static_cast<double>(d.gpu_index)
                              : 0.1 * static_cast<double>(d.socket + 1);
    }
    const auto times = per_process_times(set, device_times);
    ASSERT_EQ(times.size(), 24U);

    // Rank 0: Tesla C870 host process (gpu_index 0 on socket 0) -> 1.0.
    EXPECT_DOUBLE_EQ(times[0], 1.0);
    // Ranks 1-5: socket 0 cores.
    for (std::size_t r = 1; r <= 5; ++r) {
        EXPECT_DOUBLE_EQ(times[r], 0.1);
    }
    // Rank 6: GTX680 host process -> 2.0.
    EXPECT_DOUBLE_EQ(times[6], 2.0);
    for (std::size_t r = 7; r <= 11; ++r) {
        EXPECT_DOUBLE_EQ(times[r], 0.2);
    }
    // Sockets 2 and 3: 6 cores each.
    for (std::size_t r = 12; r <= 17; ++r) {
        EXPECT_DOUBLE_EQ(times[r], 0.3);
    }
    for (std::size_t r = 18; r <= 23; ++r) {
        EXPECT_DOUBLE_EQ(times[r], 0.4);
    }
}

TEST_F(MatmulSimTest, Validation) {
    const DeviceSet set = cpu_only_devices(node_);
    EXPECT_THROW(run_simulated_app(node_, set, even_layout(2, 10)), fpm::Error);
    part::ColumnLayout empty;
    empty.rects.resize(set.devices.size());
    EXPECT_THROW(run_simulated_app(node_, set, empty), fpm::Error);
    EXPECT_THROW(per_process_times(set, std::vector<double>{1.0}), fpm::Error);
}

} // namespace
} // namespace fpm::app
