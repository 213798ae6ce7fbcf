// Tests for the device-set configurations of the hybrid node and the
// contention-aware benchmark factory.
#include <gtest/gtest.h>

#include <limits>

#include "fpm/app/device_set.hpp"

namespace fpm::app {
namespace {

class DeviceSetTest : public ::testing::Test {
protected:
    sim::HybridNode node_{sim::ig_platform(), {}};
};

TEST_F(DeviceSetTest, CpuOnlyHasFourFullSockets) {
    const DeviceSet set = cpu_only_devices(node_);
    ASSERT_EQ(set.devices.size(), 4U);
    for (const auto& device : set.devices) {
        EXPECT_EQ(device.kind, DeviceKind::kCpuSocket);
        EXPECT_EQ(device.cores, 6U);
    }
    EXPECT_EQ(set.process_count(), 24U);
    EXPECT_FALSE(set.gpu_on_socket(0));
}

TEST_F(DeviceSetTest, SingleGpuConfiguration) {
    const DeviceSet set = single_gpu_devices(node_, 1);
    ASSERT_EQ(set.devices.size(), 1U);
    EXPECT_EQ(set.devices[0].kind, DeviceKind::kGpu);
    EXPECT_EQ(set.devices[0].name, "GeForce GTX680");
    EXPECT_EQ(set.devices[0].socket, 1U);
    EXPECT_EQ(set.process_count(), 1U);
    EXPECT_THROW(single_gpu_devices(node_, 7), fpm::Error);
}

TEST_F(DeviceSetTest, HybridMatchesPaperConfiguration) {
    // The paper: 22 CPU cores + 2 GPUs, the remaining 2 cores dedicated.
    const DeviceSet set = hybrid_devices(node_);
    ASSERT_EQ(set.devices.size(), 6U);  // 2 GPUs + 4 sockets

    unsigned cpu_cores = 0;
    unsigned gpus = 0;
    for (const auto& device : set.devices) {
        if (device.kind == DeviceKind::kCpuSocket) {
            cpu_cores += device.cores;
        } else {
            ++gpus;
        }
    }
    EXPECT_EQ(cpu_cores, 22U);
    EXPECT_EQ(gpus, 2U);
    EXPECT_EQ(set.process_count(), 24U);

    // Sockets 0 and 1 host GPUs -> 5 compute cores each (the S5 devices);
    // sockets 2 and 3 keep 6 (the S6 devices).
    EXPECT_EQ(set.cpu_cores_on_socket(0), 5U);
    EXPECT_EQ(set.cpu_cores_on_socket(1), 5U);
    EXPECT_EQ(set.cpu_cores_on_socket(2), 6U);
    EXPECT_EQ(set.cpu_cores_on_socket(3), 6U);
    EXPECT_TRUE(set.gpu_on_socket(0));
    EXPECT_TRUE(set.gpu_on_socket(1));
    EXPECT_FALSE(set.gpu_on_socket(2));
}

TEST_F(DeviceSetTest, BenchFactoryWiresContention) {
    const DeviceSet hybrid = hybrid_devices(node_);
    // Find the S5 socket device on socket 0 and the GPU on socket 0.
    std::size_t s5_index = hybrid.devices.size();
    std::size_t gpu_index = hybrid.devices.size();
    for (std::size_t i = 0; i < hybrid.devices.size(); ++i) {
        const Device& d = hybrid.devices[i];
        if (d.kind == DeviceKind::kCpuSocket && d.socket == 0) {
            s5_index = i;
        }
        if (d.kind == DeviceKind::kGpu && d.socket == 0) {
            gpu_index = i;
        }
    }
    ASSERT_LT(s5_index, hybrid.devices.size());
    ASSERT_LT(gpu_index, hybrid.devices.size());

    auto cpu_bench = make_device_bench(node_, hybrid, s5_index);
    auto gpu_bench = make_device_bench(node_, hybrid, gpu_index);

    // The hybrid CPU bench reflects GPU co-activity: slightly slower than
    // an exclusive measurement of the same 5 cores.
    const double exclusive = node_.cpu_kernel_time(0, 5, 300.0, false);
    EXPECT_GT(cpu_bench->run(300.0), exclusive);

    // The hybrid GPU bench reflects 5 co-active CPU cores.
    const double idle_gpu = node_.gpu_kernel_time(0, 300.0, sim::KernelVersion::kV3, 0);
    EXPECT_GT(gpu_bench->run(300.0), idle_gpu);
    EXPECT_THROW(make_device_bench(node_, hybrid, 99), fpm::Error);
}

TEST_F(DeviceSetTest, BuildDeviceFpmsProducesOneModelPerDevice) {
    const DeviceSet set = cpu_only_devices(node_);
    core::FpmBuildOptions options;
    options.x_min = 4.0;
    options.x_max = 400.0;
    options.initial_points = 4;
    options.max_points = 8;
    options.reliability.min_repetitions = 1;
    options.reliability.max_repetitions = 1;
    const auto models = build_device_fpms(node_, set, options);
    ASSERT_EQ(models.size(), set.devices.size());
    for (const auto& model : models) {
        EXPECT_GT(model.speed(100.0), 0.0);
    }
    // Identical sockets produce identical models.
    EXPECT_DOUBLE_EQ(models[0].speed(200.0), models[1].speed(200.0));
}

TEST_F(DeviceSetTest, BuildDeviceCpmsEvenShare) {
    const DeviceSet set = hybrid_devices(node_);
    const auto cpms = build_device_cpms(node_, set, 1600.0);
    ASSERT_EQ(cpms.size(), set.devices.size());
    // The GTX680 constant dwarfs every socket constant when measured at
    // the even share of a small problem (it fits in device memory there).
    double gtx = 0.0;
    double socket_max = 0.0;
    for (std::size_t i = 0; i < cpms.size(); ++i) {
        // Constant and unbounded: the same speed at any size.
        EXPECT_EQ(cpms[i].max_problem(), std::numeric_limits<double>::infinity());
        const double speed = cpms[i].speed(1600.0);
        EXPECT_EQ(cpms[i].speed(4.0), speed);
        if (set.devices[i].name == "GeForce GTX680") {
            gtx = speed;
        }
        if (set.devices[i].kind == DeviceKind::kCpuSocket) {
            socket_max = std::max(socket_max, speed);
        }
    }
    EXPECT_GT(gtx, 5.0 * socket_max);
}

TEST_F(DeviceSetTest, ProcessCountHelpers) {
    Device gpu;
    gpu.kind = DeviceKind::kGpu;
    gpu.cores = 1;
    EXPECT_EQ(gpu.process_count(), 1U);
    Device socket;
    socket.kind = DeviceKind::kCpuSocket;
    socket.cores = 6;
    EXPECT_EQ(socket.process_count(), 6U);
}

} // namespace
} // namespace fpm::app
