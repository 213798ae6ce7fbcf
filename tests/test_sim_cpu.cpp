// Tests for the simulated CPU socket model and node-level CPU coupling.
#include <gtest/gtest.h>

#include "fpm/common/math.hpp"
#include "fpm/sim/cpu_model.hpp"
#include "fpm/sim/node.hpp"

namespace fpm::sim {
namespace {

SocketModel ig_socket(Precision precision = Precision::kSingle) {
    return SocketModel(ig_platform().sockets[0], precision, 640);
}

TEST(SocketModel, RejectsBadArguments) {
    const SocketModel model = ig_socket();
    EXPECT_THROW((void)model.core_rate(0.0, 1), fpm::Error);
    EXPECT_THROW((void)model.core_rate(10.0, 0), fpm::Error);
    EXPECT_THROW((void)model.core_rate(10.0, 7), fpm::Error);  // 6 cores
    EXPECT_THROW(SocketModel(SocketSpec{}, Precision::kSingle, 0), fpm::Error);
}

TEST(SocketModel, PerCoreRateDecreasesWithActiveCores) {
    const SocketModel model = ig_socket();
    double previous = model.core_rate(100.0, 1);
    for (unsigned c = 2; c <= 6; ++c) {
        const double rate = model.core_rate(100.0, c);
        EXPECT_LT(rate, previous) << "cores=" << c;
        previous = rate;
    }
}

TEST(SocketModel, SocketRateIncreasesWithActiveCores) {
    // More cores = more total speed, even though each core slows (the
    // paper: maximum socket performance with all cores busy).
    const SocketModel model = ig_socket();
    double previous = 0.0;
    for (unsigned c = 1; c <= 6; ++c) {
        const double rate = model.socket_rate(600.0, c);
        EXPECT_GT(rate, previous) << "cores=" << c;
        previous = rate;
    }
}

TEST(SocketModel, SubLinearScaling) {
    const SocketModel model = ig_socket();
    const double one = model.socket_rate(100.0, 1);
    const double six = model.socket_rate(600.0, 6);
    EXPECT_LT(six, 6.0 * one);
    EXPECT_GT(six, 4.0 * one);
}

TEST(SocketModel, SmallProblemRamp) {
    const SocketModel model = ig_socket();
    // Tiny problems run below half the plateau rate per core.
    EXPECT_LT(model.core_rate(0.5, 1), 0.5 * model.core_rate(500.0, 1));
}

TEST(SocketModel, SixCoreSocketLandsInPaperBand) {
    // Fig. 2 band: roughly 60-120 GFlops for s5/s6 in single precision.
    const SocketModel model = ig_socket();
    for (double x : {300.0, 600.0, 900.0, 1200.0}) {
        const double s6 = model.socket_rate(x, 6) / 1e9;
        const double s5 = model.socket_rate(x / 6.0 * 5.0, 5) / 1e9;
        EXPECT_GT(s6, 60.0);
        EXPECT_LT(s6, 120.0);
        EXPECT_GT(s6, s5);
    }
}

TEST(SocketModel, DoublePrecisionHalvesRate) {
    const SocketModel sp = ig_socket(Precision::kSingle);
    const SocketModel dp = ig_socket(Precision::kDouble);
    EXPECT_NEAR(dp.socket_rate(600.0, 6) / sp.socket_rate(600.0, 6), 0.5, 1e-9);
}

TEST(SocketModel, KernelTimeConsistentWithRate) {
    const SocketModel model = ig_socket();
    const double x = 300.0;
    const double t = model.kernel_time(x, 6);
    const double flops = gemm_update_flops(x, 640.0);
    EXPECT_NEAR(t, flops / model.socket_rate(x, 6), 1e-12);
}

TEST(SocketModel, KernelTimeMonotoneInProblemSize) {
    const SocketModel model = ig_socket();
    double previous = 0.0;
    for (double x = 10.0; x <= 2000.0; x *= 1.3) {
        const double t = model.kernel_time(x, 6);
        EXPECT_GT(t, previous);
        previous = t;
    }
}

TEST(HybridNode, CpuContentionFromCoactiveGpu) {
    const HybridNode node(ig_platform(), {});
    const double alone = node.cpu_kernel_time(0, 5, 300.0, false);
    const double shared = node.cpu_kernel_time(0, 5, 300.0, true);
    // CPU is "not so much affected": slower, but by less than 5 %.
    EXPECT_GT(shared, alone);
    EXPECT_LT(shared / alone, 1.05);
}

TEST(HybridNode, MeasurementNoiseIsDeterministicPerSeed) {
    HybridNode a(ig_platform(), {.noise_sigma = 0.05, .noise_seed = 99});
    HybridNode b(ig_platform(), {.noise_sigma = 0.05, .noise_seed = 99});
    for (int i = 0; i < 5; ++i) {
        EXPECT_DOUBLE_EQ(a.measure_cpu_kernel(0, 6, 100.0),
                         b.measure_cpu_kernel(0, 6, 100.0));
    }
}

TEST(HybridNode, NoiseAveragesToExactTime) {
    HybridNode node(ig_platform(), {.noise_sigma = 0.03});
    const double exact = node.cpu_kernel_time(1, 6, 200.0);
    double sum = 0.0;
    const int reps = 400;
    for (int i = 0; i < reps; ++i) {
        sum += node.measure_cpu_kernel(1, 6, 200.0);
    }
    EXPECT_NEAR(sum / reps / exact, 1.0, 0.02);
}

TEST(HybridNode, ZeroNoiseMeasurementsAreExact) {
    HybridNode node(ig_platform(), {});
    EXPECT_DOUBLE_EQ(node.measure_cpu_kernel(0, 6, 100.0),
                     node.cpu_kernel_time(0, 6, 100.0));
}

TEST(NodeSpec, ValidationCatchesBadGpuAttachment) {
    NodeSpec spec = ig_platform();
    spec.gpus[0].socket_index = 9;
    EXPECT_THROW(HybridNode(spec, {}), fpm::Error);
}

TEST(NodeSpec, IgPlatformMatchesTableI) {
    const NodeSpec spec = ig_platform();
    ASSERT_EQ(spec.sockets.size(), 4U);
    EXPECT_EQ(spec.total_cores(), 24U);
    ASSERT_EQ(spec.gpus.size(), 2U);
    EXPECT_EQ(spec.gpus[1].gpu.name, "GeForce GTX680");
    EXPECT_EQ(spec.gpus[0].gpu.name, "Tesla C870");
    EXPECT_DOUBLE_EQ(spec.gpus[1].gpu.device_memory_mib, 2048.0);
    EXPECT_DOUBLE_EQ(spec.gpus[0].gpu.device_memory_mib, 1536.0);
    EXPECT_EQ(spec.gpus[1].gpu.dma_engines, 2U);
    EXPECT_EQ(spec.gpus[0].gpu.dma_engines, 1U);
}

} // namespace
} // namespace fpm::sim
