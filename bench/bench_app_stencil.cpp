// Extension E2 — a second application family through the same pipeline:
// iterative 5-point Jacobi stencil on the hybrid node.
//
// The paper claims the FPM approach works for *any* data-parallel
// application; the stencil stresses it in the opposite regime from GEMM:
// CPUs are memory-bound (core count barely matters) and a GPU falls off a
// PCIe cliff the moment the grid exceeds device memory — its marginal
// speed out of core drops BELOW a socket's.  A CPM calibrated in core
// therefore overloads the GPU catastrophically; the FPM tracks the cliff.
#include <cstdio>

#include "bench_common.hpp"
#include "fpm/core/stencil_bench.hpp"
#include "fpm/part/fpm_partitioner.hpp"
#include "fpm/sim/stencil_model.hpp"
#include "fpm/trace/ascii_chart.hpp"
#include "fpm/trace/csv.hpp"
#include "fpm/trace/table.hpp"

using namespace fpm;

namespace {

/// Per-sweep makespan of a row distribution (device 0 = GTX680,
/// devices 1..4 = full sockets).
double sweep_makespan(const sim::HybridNode& node, const sim::StencilSpec& spec,
                      const std::vector<double>& rows) {
    double worst = 0.0;
    if (rows[0] > 0.0) {
        worst = sim::stencil_gpu_sweep_time(node, 1, rows[0], spec);
    }
    for (std::size_t s = 0; s < 4; ++s) {
        if (rows[1 + s] > 0.0) {
            worst = std::max(worst, sim::stencil_cpu_sweep_time(
                                        node, s, 6, rows[1 + s], spec));
        }
    }
    return worst;
}

} // namespace

int main() {
    sim::HybridNode node(sim::ig_platform(), {});
    bench::print_platform(node);
    const sim::StencilSpec spec;
    std::printf("Extension E2 — 5-point Jacobi stencil (grid width %lld "
                "cells, single precision)\n\n",
                static_cast<long long>(spec.cols));

    // Speed functions via the generic pipeline.
    core::FpmBuildOptions options = bench::bench_fpm_options(600000.0);
    options.x_min = 64.0;
    std::vector<core::SpeedFunction> models;
    core::SimGpuStencilBench gpu_bench(node, 1, spec);
    models.push_back(core::build_fpm(gpu_bench, options));
    for (std::size_t s = 0; s < node.socket_count(); ++s) {
        core::SimCpuStencilBench cpu_bench(node, s, 6, spec);
        models.push_back(core::build_fpm(cpu_bench, options));
    }

    // The GPU's stencil speed function: dramatic cliff at residency.
    const double resident = sim::stencil_gpu_resident_rows(node, 1, spec);
    std::printf("GTX680 resident capacity: %.0f rows\n\n", resident);
    trace::Series gpu_series{"GTX680 (rows/s, millions)", 'g', {}, {}};
    trace::Series cpu_series{"socket s6 (rows/s, millions)", 's', {}, {}};
    trace::CsvWriter csv("app_stencil.csv");
    csv.write_row(std::vector<std::string>{"rows", "gpu_rows_per_s",
                                           "socket_rows_per_s"});
    for (double rows = 2000.0; rows <= 120000.0; rows += 4000.0) {
        const double gpu_rate = rows / models[0].time(rows) / 1e6;
        const double cpu_rate = rows / models[1].time(rows) / 1e6;
        gpu_series.xs.push_back(rows);
        gpu_series.ys.push_back(gpu_rate);
        cpu_series.xs.push_back(rows);
        cpu_series.ys.push_back(cpu_rate);
        csv.write_row(std::vector<double>{rows, gpu_rate * 1e6, cpu_rate * 1e6});
    }
    std::printf("%s\n", trace::render_chart({gpu_series, cpu_series},
                                            {.width = 72,
                                             .height = 16,
                                             .x_label = "rows assigned",
                                             .y_label = "sweep rate (M rows/s)"})
                            .c_str());

    // Partition a deep out-of-core grid three ways.
    const std::int64_t total_rows = 400000;
    const auto fpm_cont =
        part::partition_fpm(models, static_cast<double>(total_rows));
    const auto fpm_blocks =
        part::round_partition(fpm_cont.partition, total_rows, models);

    std::vector<double> cpm_speeds;
    for (const auto& model : models) {
        cpm_speeds.push_back(1000.0 / model.time(1000.0));  // in-core constants
    }
    const auto cpm_cont =
        part::partition_cpm(cpm_speeds, static_cast<double>(total_rows));
    const auto even_cont = part::partition_homogeneous(
        models.size(), static_cast<double>(total_rows));

    auto to_rows = [](const part::Partition1D& partition) {
        return partition.share;
    };
    std::vector<double> fpm_rows;
    for (const auto blocks : fpm_blocks.blocks) {
        fpm_rows.push_back(static_cast<double>(blocks));
    }
    const double t_fpm = sweep_makespan(node, spec, fpm_rows);
    const double t_cpm = sweep_makespan(node, spec, to_rows(cpm_cont));
    const double t_even = sweep_makespan(node, spec, to_rows(even_cont));

    trace::Table table({"algorithm", "GPU rows", "rows/socket", "sweep time (s)"});
    table.row().cell("homogeneous").cell(even_cont.share[0], 0)
        .cell(even_cont.share[1], 0).cell(t_even, 3);
    table.row().cell("CPM (in-core constants)").cell(cpm_cont.share[0], 0)
        .cell(cpm_cont.share[1], 0).cell(t_cpm, 3);
    table.row().cell("FPM").cell(static_cast<double>(fpm_blocks.blocks[0]), 0)
        .cell(static_cast<double>(fpm_blocks.blocks[1]), 0).cell(t_fpm, 3);
    table.print();
    std::printf("\n");

    bool ok = true;
    const double gpu_in = models[0].speed(resident * 0.5);
    const double gpu_out = models[0].speed(resident * 6.0);
    ok &= bench::shape_check("app_stencil.pcie_cliff",
                             gpu_in > 3.0 * gpu_out,
                             "GPU rate falls " + fixed(gpu_in / gpu_out, 1) +
                                 "x past device memory");
    const double socket_out = models[1].speed(resident * 6.0);
    ok &= bench::shape_check("app_stencil.gpu_marginal_below_socket",
                             gpu_out < socket_out,
                             "out-of-core GPU is slower than one socket");
    ok &= bench::shape_check("app_stencil.fpm_best",
                             t_fpm < t_cpm && t_fpm < t_even,
                             "FPM " + fixed(t_fpm, 3) + " s vs CPM " +
                                 fixed(t_cpm, 3) + " s vs even " +
                                 fixed(t_even, 3) + " s");
    ok &= bench::shape_check("app_stencil.cpm_overload",
                             t_cpm > 2.0 * t_fpm,
                             "the in-core CPM overloads the GPU " +
                                 fixed(t_cpm / t_fpm, 1) + "x");
    std::printf("\nraw series written to app_stencil.csv\n");
    return ok ? 0 : 1;
}
