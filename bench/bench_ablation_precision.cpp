// Ablation A7 — single vs double precision: the FPM pipeline adapts the
// partition to the arithmetic.  In single precision the GTX680 dominates
// a socket ~9x in core; in double precision its Kepler-class FP64 rate
// (1/24 of FP32) drops the combined GPU device below a socket, and the
// partitioner shifts the workload to the CPUs.  The Tesla C870 has no
// FP64 at all, so the double-precision platform simply excludes it —
// exactly what a deployment would do.
#include <cstdio>

#include "bench_common.hpp"
#include "fpm/trace/table.hpp"

using namespace fpm;

namespace {

/// The paper's node minus the FP64-less Tesla C870.
sim::NodeSpec gtx_only_platform() {
    sim::NodeSpec spec = sim::ig_platform();
    spec.gpus.erase(spec.gpus.begin());  // drop the C870 (index 0)
    return spec;
}

struct PrecisionRun {
    std::vector<std::string> names;
    std::vector<std::int64_t> blocks;
    double gpu_share = 0.0;
};

PrecisionRun run(sim::Precision precision, std::int64_t n) {
    sim::SimOptions options;
    options.precision = precision;
    sim::HybridNode node(gtx_only_platform(), options);
    const app::DeviceSet set = app::hybrid_devices(node);

    core::FpmBuildOptions model_options = bench::bench_fpm_options(5200.0);
    const auto models = app::build_device_fpms(node, set, model_options);

    PrecisionRun result;
    result.blocks = part::partition({models, n, part::Algorithm::kFpm}).blocks;
    for (std::size_t i = 0; i < set.devices.size(); ++i) {
        result.names.push_back(set.devices[i].name);
        if (set.devices[i].kind == app::DeviceKind::kGpu) {
            result.gpu_share += static_cast<double>(result.blocks[i]);
        }
    }
    result.gpu_share /= static_cast<double>(n) * static_cast<double>(n);
    return result;
}

} // namespace

int main() {
    std::printf("Ablation A7 — precision changes the optimal partition "
                "(GTX680 + 4 sockets, n = 50)\n\n");

    const std::int64_t n = 50;
    const PrecisionRun sp = run(sim::Precision::kSingle, n);
    const PrecisionRun dp = run(sim::Precision::kDouble, n);

    trace::Table table({"device", "SP blocks", "DP blocks"});
    for (std::size_t i = 0; i < sp.names.size(); ++i) {
        table.row().cell(sp.names[i]).cell(sp.blocks[i]).cell(dp.blocks[i]);
    }
    table.print();
    std::printf("\nGPU share of the matrix: %.1f%% in single precision, "
                "%.1f%% in double\n\n",
                100.0 * sp.gpu_share, 100.0 * dp.gpu_share);

    bool ok = true;
    ok &= bench::shape_check("ablation_precision.sp_gpu_heavy",
                             sp.gpu_share > 0.45,
                             "SP: GPU takes " + fixed(100.0 * sp.gpu_share, 1) +
                                 "% of the work");
    ok &= bench::shape_check("ablation_precision.dp_cpu_heavy",
                             dp.gpu_share < 0.25,
                             "DP: GPU falls to " +
                                 fixed(100.0 * dp.gpu_share, 1) +
                                 "% (Kepler FP64 = FP32/24)");
    ok &= bench::shape_check("ablation_precision.partition_adapts",
                             sp.gpu_share > 2.0 * dp.gpu_share,
                             "the FPM pipeline re-balances without any "
                             "code change");
    return ok ? 0 : 1;
}
