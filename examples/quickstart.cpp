// Quickstart: the whole library in ~60 lines.
//
//  1. describe a hybrid platform (here: the paper's 4-socket + 2-GPU node),
//  2. build a functional performance model (FPM) per device by timing the
//     application kernel,
//  3. run the FPM-based data partitioner, which also lays the shares out
//     as a 2-D column partition, and inspect the result.
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "fpm/app/device_set.hpp"
#include "fpm/part/request.hpp"

int main() {
    using namespace fpm;

    // 1. The simulated hybrid node from the paper (Table I).  On a real
    //    deployment you would instead wrap your own kernels in a
    //    core::KernelBenchmark (see examples/model_builder.cpp).
    sim::HybridNode node(sim::ig_platform(), {});
    const app::DeviceSet devices = app::hybrid_devices(node);
    std::printf("devices:\n");
    for (const auto& device : devices.devices) {
        std::printf("  - %s\n", device.name.c_str());
    }

    // 2. Build one speed function per device: speed(x) = x / t_kernel(x),
    //    measured over a range of problem sizes with adaptive refinement.
    core::FpmBuildOptions options;
    options.x_min = 4.0;
    options.x_max = 4000.0;
    options.reliability.min_repetitions = 1;
    options.reliability.max_repetitions = 1;  // the simulator is noise-free
    const auto models = app::build_device_fpms(node, devices, options);

    // 3. Balance a 60 x 60-block matrix multiplication: find shares x_i
    //    with sum x_i = 3600 and x_i / s_i(x_i) equal for all devices,
    //    round them to whole blocks and lay them out in 2-D columns of
    //    near-square rectangles (minimal communication volume).
    const std::int64_t n = 60;
    const auto plan = part::partition({models, n, part::Algorithm::kFpm});
    std::printf("\nbalanced execution time per iteration: %.3f s\n",
                plan.balanced_time);
    std::printf("\n%-18s %8s %14s %10s\n", "device", "blocks", "rectangle",
                "share %");
    for (std::size_t i = 0; i < devices.devices.size(); ++i) {
        const auto& rect = plan.layout.rects[i];
        std::printf("%-18s %8lld %6lld x %-6lld %9.1f%%\n",
                    devices.devices[i].name.c_str(),
                    static_cast<long long>(plan.blocks[i]),
                    static_cast<long long>(rect.w),
                    static_cast<long long>(rect.h),
                    100.0 * static_cast<double>(plan.blocks[i]) /
                        static_cast<double>(n * n));
    }
    std::printf("\ntotal communication cost (half-perimeter sum): %lld blocks\n",
                static_cast<long long>(plan.comm_cost));
    return 0;
}
