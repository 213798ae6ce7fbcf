/// \file bench_common.hpp
/// \brief Shared plumbing for the paper-reproduction benches.
///
/// Every bench prints the simulated platform banner (Table I), the
/// reproduced artefact, and one or more machine-greppable shape-check
/// lines `SHAPE <name>: PASS|FAIL (<detail>)` that EXPERIMENTS.md is
/// compiled from.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "fpm/app/device_set.hpp"
#include "fpm/common/format.hpp"
#include "fpm/common/math.hpp"
#include "fpm/core/fpm_builder.hpp"
#include "fpm/sim/node.hpp"

namespace fpm::bench {

/// Prints the Table I banner for the simulated node.
inline void print_platform(const sim::HybridNode& node) {
    const auto& spec = node.spec();
    std::printf("Simulated platform: %s (paper Table I)\n", spec.hostname.c_str());
    std::printf("  CPU: %zu x %u-core %s @ %.1f GHz, %.0f GiB/socket\n",
                spec.sockets.size(), spec.sockets[0].cores,
                spec.sockets[0].name.c_str(), spec.sockets[0].clock_ghz,
                spec.sockets[0].memory_gib);
    for (std::size_t g = 0; g < spec.gpus.size(); ++g) {
        const auto& gpu = spec.gpus[g].gpu;
        std::printf("  GPU: %-15s %4u cores @ %4.0f MHz, %4.0f MiB, %.1f GB/s"
                    " (socket %u, %u DMA engine%s)\n",
                    gpu.name.c_str(), gpu.cuda_cores, gpu.clock_mhz,
                    gpu.device_memory_mib, gpu.device_mem_bandwidth_gbs,
                    spec.gpus[g].socket_index, gpu.dma_engines,
                    gpu.dma_engines == 1 ? "" : "s");
    }
    std::printf("  blocking factor b = %zu, single precision\n\n",
                node.options().block_size);
}

/// One shape-check result line; returns the pass flag so main() can set
/// the exit code.
inline bool shape_check(const std::string& name, bool pass,
                        const std::string& detail) {
    std::printf("SHAPE %s: %s (%s)\n", name.c_str(), pass ? "PASS" : "FAIL",
                detail.c_str());
    return pass;
}

/// Speed in GFlop/s for a kernel of `area` blocks timed at `seconds`.
inline double to_gflops(double area_blocks, double seconds,
                        std::size_t block_size = 640) {
    return gemm_update_flops(area_blocks, static_cast<double>(block_size)) /
           seconds / 1e9;
}

/// FPM build options used by the table/figure benches: noise-free
/// simulator, single repetition, dense enough to pin the memory cliff.
inline core::FpmBuildOptions bench_fpm_options(double x_max) {
    core::FpmBuildOptions options;
    options.x_min = 4.0;
    options.x_max = x_max;
    options.initial_points = 14;
    options.max_points = 44;
    options.refine_tolerance = 0.04;
    options.reliability.min_repetitions = 1;
    options.reliability.max_repetitions = 1;
    return options;
}

/// Finds the first device index matching a predicate; throws if absent.
template <typename Pred>
std::size_t find_device(const app::DeviceSet& set, Pred&& pred) {
    for (std::size_t i = 0; i < set.devices.size(); ++i) {
        if (pred(set.devices[i])) {
            return i;
        }
    }
    throw Error("device not found in set");
}

} // namespace fpm::bench

#include "fpm/app/matmul_sim.hpp"
#include "fpm/part/request.hpp"

namespace fpm::bench {

/// The full partitioning pipeline on the hybrid device set, shared by the
/// Table II/III and Fig. 6/7 benches: FPMs built once (they are valid for
/// the whole problem-size range — the point of the functional model), CPM
/// constants rebuilt per problem size from the even-share measurement.
class HybridPipeline {
public:
    explicit HybridPipeline(sim::HybridNode& node, double x_max = 5200.0)
        : node_(node), set_(app::hybrid_devices(node)),
          fpms_(app::build_device_fpms(node, set_, bench_fpm_options(x_max))) {}

    [[nodiscard]] const app::DeviceSet& set() const { return set_; }
    [[nodiscard]] const std::vector<core::SpeedFunction>& fpms() const {
        return fpms_;
    }

    /// `algorithm`'s plan of an n x n matrix: fpm and even under the FPMs,
    /// cpm under the CPMs measured at this size's even share.
    [[nodiscard]] part::PartitionPlan plan(part::Algorithm algorithm,
                                           std::int64_t n) const {
        if (algorithm == part::Algorithm::kCpm) {
            const auto cpms = app::build_device_cpms(
                node_, set_, static_cast<double>(n) * n);
            return part::partition({cpms, n, algorithm});
        }
        return part::partition({fpms_, n, algorithm});
    }

    [[nodiscard]] app::SimAppResult run(const part::PartitionPlan& plan) const {
        return app::run_simulated_app(node_, set_, plan.layout);
    }

private:
    sim::HybridNode& node_;
    app::DeviceSet set_;
    std::vector<core::SpeedFunction> fpms_;
};

} // namespace fpm::bench
