// Integration tests: the full pipeline of the paper on the simulated
// hybrid node — build FPMs/CPMs, partition, run the application — and the
// paper's qualitative claims (section VI).
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "fpm/app/matmul_sim.hpp"
#include "fpm/part/integer.hpp"
#include "fpm/part/request.hpp"

namespace fpm::app {
namespace {

using part::Algorithm;

core::FpmBuildOptions fast_fpm_options(double x_max) {
    core::FpmBuildOptions options;
    options.x_min = 4.0;
    options.x_max = x_max;
    options.initial_points = 12;
    options.max_points = 36;
    options.reliability.min_repetitions = 1;
    options.reliability.max_repetitions = 1;
    return options;
}

class IntegrationTest : public ::testing::Test {
protected:
    sim::HybridNode node_{sim::ig_platform(), {}};

    /// Simulated time of `algorithm`'s plan of an n x n matrix under
    /// `models` on `set`.
    double run_time(const DeviceSet& set,
                    const std::vector<core::SpeedFunction>& models,
                    std::int64_t n, Algorithm algorithm) {
        const auto plan = part::partition({models, n, algorithm});
        return run_simulated_app(node_, set, plan.layout).total_time;
    }
};

TEST_F(IntegrationTest, FpmPartitionBalancesHybridNode) {
    const DeviceSet set = hybrid_devices(node_);
    const auto fpms = build_device_fpms(node_, set, fast_fpm_options(5200.0));
    const std::int64_t n = 60;
    const auto plan = part::partition({fpms, n, Algorithm::kFpm});
    const auto& blocks = plan.blocks;

    EXPECT_EQ(std::accumulate(blocks.begin(), blocks.end(), std::int64_t{0}),
              n * n);

    const auto result = run_simulated_app(node_, set, plan.layout);
    // All devices finish within a tight band of the straggler.
    const double makespan = *std::max_element(result.device_iter_time.begin(),
                                              result.device_iter_time.end());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        if (blocks[i] > 0) {
            EXPECT_GT(result.device_iter_time[i], 0.75 * makespan)
                << set.devices[i].name;
        }
    }
}

TEST_F(IntegrationTest, CpmOverloadsGpuBeyondMemoryLimit) {
    // Table III: the CPM (built at the even share of a small problem)
    // assigns the GTX680 proportionally more than the FPM once the
    // problem exceeds its device memory; its blocks-to-S6 ratio stays
    // near the in-core speed ratio (~8-9x at n = 70) while the FPM ratio
    // falls to the out-of-core ratio (~4-6x).
    const DeviceSet set = hybrid_devices(node_);
    const auto fpms = build_device_fpms(node_, set, fast_fpm_options(5200.0));

    std::size_t gtx = 0;
    std::size_t s6 = 0;
    for (std::size_t i = 0; i < set.devices.size(); ++i) {
        if (set.devices[i].name == "GeForce GTX680") {
            gtx = i;
        }
        if (set.devices[i].kind == DeviceKind::kCpuSocket &&
            set.devices[i].cores == 6) {
            s6 = i;
        }
    }

    const std::int64_t n = 70;
    const auto cpms = build_device_cpms(node_, set, static_cast<double>(n * n));
    const auto cpm_blocks = part::partition({cpms, n, Algorithm::kCpm}).blocks;
    const auto fpm_blocks = part::partition({fpms, n, Algorithm::kFpm}).blocks;

    const double cpm_ratio = static_cast<double>(cpm_blocks[gtx]) /
                             static_cast<double>(cpm_blocks[s6]);
    const double fpm_ratio = static_cast<double>(fpm_blocks[gtx]) /
                             static_cast<double>(fpm_blocks[s6]);
    EXPECT_GT(cpm_ratio, 1.3 * fpm_ratio);
    EXPECT_GT(cpm_ratio, 7.0);
    EXPECT_LT(fpm_ratio, 6.5);
}

TEST_F(IntegrationTest, FpmBeatsCpmAndHomogeneousAtLargeSizes) {
    // Fig. 7: homogeneous worst, CPM fails past the memory cliff, FPM
    // best; ~30 % / ~45 % reductions in the large range.
    const DeviceSet set = hybrid_devices(node_);
    const auto fpms = build_device_fpms(node_, set, fast_fpm_options(5200.0));

    const std::int64_t n = 70;
    const auto cpms = build_device_cpms(node_, set, static_cast<double>(n * n));

    const auto t_even = run_time(set, fpms, n, Algorithm::kEven);
    const auto t_cpm = run_time(set, cpms, n, Algorithm::kCpm);
    const auto t_fpm = run_time(set, fpms, n, Algorithm::kFpm);

    EXPECT_LT(t_fpm, t_cpm);
    EXPECT_LT(t_cpm, t_even);
    EXPECT_LT(t_fpm, 0.85 * t_cpm);   // paper: ~30 % better
    EXPECT_LT(t_fpm, 0.70 * t_even);  // paper: ~45 % better
}

TEST_F(IntegrationTest, CpmMatchesFpmWhileProblemsAreSmall) {
    // Fig. 7: for small problems both model-based partitionings balance.
    const DeviceSet set = hybrid_devices(node_);
    const auto fpms = build_device_fpms(node_, set, fast_fpm_options(5200.0));

    const std::int64_t n = 30;  // everything fits the GTX680's memory
    const auto cpms = build_device_cpms(node_, set, static_cast<double>(n * n));
    const auto t_cpm = run_time(set, cpms, n, Algorithm::kCpm);
    const auto t_fpm = run_time(set, fpms, n, Algorithm::kFpm);
    EXPECT_NEAR(t_cpm / t_fpm, 1.0, 0.12);
}

TEST_F(IntegrationTest, TableIIOrderingReproduced) {
    // Hybrid-FPM < min(CPUs-only, GTX680-only) for every paper size, and
    // the CPU/GPU crossover lands between n = 50 and n = 60.
    const DeviceSet cpu_set = cpu_only_devices(node_);
    const DeviceSet gpu_set = single_gpu_devices(node_, 1, sim::KernelVersion::kV2);
    const DeviceSet hybrid_set = hybrid_devices(node_);
    const auto fpms = build_device_fpms(node_, hybrid_set, fast_fpm_options(5200.0));

    double previous_gpu_advantage = 1e9;
    for (const std::int64_t n : {40, 50, 60, 70}) {
        const auto even_time = [&](const DeviceSet& set) {
            const auto cpms =
                build_device_cpms(node_, set, static_cast<double>(n * n));
            return run_time(set, cpms, n, Algorithm::kEven);
        };
        const auto t_cpu = even_time(cpu_set);
        const auto t_gpu = even_time(gpu_set);
        const auto t_hybrid = run_time(hybrid_set, fpms, n, Algorithm::kFpm);

        EXPECT_LT(t_hybrid, t_cpu) << "n=" << n;
        EXPECT_LT(t_hybrid, t_gpu) << "n=" << n;

        const double gpu_advantage = t_cpu / t_gpu;
        EXPECT_LT(gpu_advantage, previous_gpu_advantage) << "n=" << n;
        previous_gpu_advantage = gpu_advantage;

        if (n <= 50) {
            EXPECT_GT(gpu_advantage, 1.0) << "GPU should win at n=" << n;
        }
        if (n >= 60) {
            EXPECT_LT(gpu_advantage, 1.0) << "CPUs should win at n=" << n;
        }
    }
}

TEST_F(IntegrationTest, BaselinesKeepTheirMeasuredConstants) {
    // Planned through part::partition, the cpm baseline is the largest-
    // remainder rounding of the constants build_cpm_even_share measures,
    // and every even plan that of the even shares: the hybrid one under
    // the FPMs, the CPU-only and GTX680-only ones under their own CPMs.
    const DeviceSet hybrid = hybrid_devices(node_);
    const auto fpms = build_device_fpms(node_, hybrid, fast_fpm_options(5200.0));
    for (std::int64_t n = 10; n <= 80; n += 10) {
        const double total = static_cast<double>(n * n);
        std::vector<std::unique_ptr<core::KernelBenchmark>> benches;
        std::vector<core::KernelBenchmark*> pointers;
        for (std::size_t i = 0; i < hybrid.devices.size(); ++i) {
            benches.push_back(make_device_bench(node_, hybrid, i));
            pointers.push_back(benches.back().get());
        }
        std::vector<double> speeds;
        for (const auto& model : core::build_cpm_even_share(pointers, total)) {
            speeds.push_back(model.speed);
        }
        const auto cpms = build_device_cpms(node_, hybrid, total);
        EXPECT_EQ(part::partition({cpms, n, Algorithm::kCpm}).blocks,
                  part::round_largest_remainder(
                      part::partition_cpm(speeds, total), n * n)
                      .blocks)
            << "n=" << n;

        const auto even_blocks = [&](std::size_t devices) {
            return part::round_largest_remainder(
                       part::partition_homogeneous(devices, total), n * n)
                .blocks;
        };
        EXPECT_EQ(part::partition({fpms, n, Algorithm::kEven}).blocks,
                  even_blocks(hybrid.devices.size()))
            << "n=" << n;
        for (const DeviceSet& set :
             {cpu_only_devices(node_),
              single_gpu_devices(node_, 1, sim::KernelVersion::kV2)}) {
            const auto own = build_device_cpms(node_, set, total);
            EXPECT_EQ(part::partition({own, n, Algorithm::kEven}).blocks,
                      even_blocks(set.devices.size()))
                << "n=" << n;
        }
    }
}

TEST_F(IntegrationTest, PipelineWorksUnderMeasurementNoise) {
    sim::HybridNode noisy(sim::ig_platform(), {.noise_sigma = 0.04});
    const DeviceSet set = hybrid_devices(noisy);

    core::FpmBuildOptions options = fast_fpm_options(5200.0);
    options.reliability.min_repetitions = 3;
    options.reliability.max_repetitions = 30;
    options.reliability.target_relative_error = 0.02;
    const auto fpms = build_device_fpms(noisy, set, options);

    const auto plan = part::partition({fpms, 60, Algorithm::kFpm});
    const auto result = run_simulated_app(noisy, set, plan.layout);

    // Balance within 20 % despite noisy models.
    const double makespan = *std::max_element(result.device_iter_time.begin(),
                                              result.device_iter_time.end());
    for (std::size_t i = 0; i < set.devices.size(); ++i) {
        if (plan.blocks[i] > 0) {
            EXPECT_GT(result.device_iter_time[i], 0.6 * makespan)
                << set.devices[i].name;
        }
    }
}

} // namespace
} // namespace fpm::app
