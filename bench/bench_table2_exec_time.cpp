// Reproduces Table II: execution time of the parallel matrix
// multiplication on three configurations of the hybrid node —
// 24 CPU cores (homogeneous distribution), GeForce GTX680 + dedicated
// core, and the FPM-partitioned hybrid (22 cores + 2 GPUs).
//
// Shape criteria (paper): the GPU beats the 24 cores while the problem
// (mostly) fits its device memory (n = 40, 50) and loses beyond it
// (n = 60, 70); the hybrid-FPM configuration is fastest everywhere.
// Note: the GPU-only column runs kernel version 2 — the serial
// out-of-core kernel — which is what the paper's effective Table II GPU
// rates (453 -> 324 GFlops) correspond to; the overlapped version 3
// appears in the Fig. 3 reproduction (see EXPERIMENTS.md).
#include <cstdio>

#include "bench_common.hpp"
#include "fpm/trace/csv.hpp"
#include "fpm/trace/table.hpp"

using namespace fpm;

int main() {
    sim::HybridNode node(sim::ig_platform(), {});
    bench::print_platform(node);
    std::printf("Table II — execution time of parallel matrix multiplication\n\n");

    const app::DeviceSet cpu_set = app::cpu_only_devices(node);
    const app::DeviceSet gpu_set =
        app::single_gpu_devices(node, 1, sim::KernelVersion::kV2);
    bench::HybridPipeline pipeline(node);

    struct PaperRow {
        std::int64_t n;
        double cpus;
        double gtx680;
        double hybrid;
    };
    const PaperRow paper[] = {{40, 99.5, 74.2, 26.6},
                              {50, 195.4, 162.7, 77.8},
                              {60, 300.1, 316.8, 114.4},
                              {70, 491.6, 554.8, 226.1}};

    trace::Table table({"Matrix", "CPUs (sec)", "GTX680 (sec)",
                        "Hybrid-FPM (sec)", "paper CPUs", "paper GTX680",
                        "paper Hybrid"});
    trace::CsvWriter csv("table2_exec_time.csv");
    csv.write_row(std::vector<std::string>{"n", "cpus_s", "gtx680_s",
                                           "hybrid_fpm_s"});

    double measured[4][3] = {};
    for (std::size_t r = 0; r < 4; ++r) {
        const std::int64_t n = paper[r].n;

        // Columns 2 and 3: homogeneous distribution over 24 cores (4
        // sockets), and everything on the GTX680 + its dedicated core.
        const auto even_time = [&](const app::DeviceSet& set) {
            const auto cpms = app::build_device_cpms(
                node, set, static_cast<double>(n) * n);
            const auto plan =
                part::partition({cpms, n, part::Algorithm::kEven});
            return app::run_simulated_app(node, set, plan.layout).total_time;
        };
        const double t_cpu = even_time(cpu_set);
        const double t_gpu = even_time(gpu_set);

        // Column 4: FPM-partitioned hybrid.
        const double t_hybrid =
            pipeline.run(pipeline.plan(part::Algorithm::kFpm, n)).total_time;

        measured[r][0] = t_cpu;
        measured[r][1] = t_gpu;
        measured[r][2] = t_hybrid;
        table.row()
            .cell(std::to_string(n) + " x " + std::to_string(n))
            .cell(t_cpu, 1)
            .cell(t_gpu, 1)
            .cell(t_hybrid, 1)
            .cell(paper[r].cpus, 1)
            .cell(paper[r].gtx680, 1)
            .cell(paper[r].hybrid, 1);
        csv.write_row(std::vector<double>{static_cast<double>(n), t_cpu, t_gpu,
                                          t_hybrid});
    }
    table.print();
    std::printf("\n");

    bool ok = true;
    ok &= bench::shape_check("table2.gpu_wins_small",
                             measured[0][1] < measured[0][0] &&
                                 measured[1][1] < measured[1][0],
                             "GTX680 beats 24 cores at n=40,50");
    ok &= bench::shape_check("table2.cpus_win_large",
                             measured[2][1] > measured[2][0] &&
                                 measured[3][1] > measured[3][0],
                             "24 cores beat GTX680 at n=60,70");
    bool hybrid_best = true;
    for (auto& row : measured) {
        hybrid_best &= row[2] < row[0] && row[2] < row[1];
    }
    ok &= bench::shape_check("table2.hybrid_always_best", hybrid_best,
                             "Hybrid-FPM fastest at every size");
    // Absolute scale within 2x of the paper on every cell.
    bool scale_ok = true;
    const double paper_cells[4][3] = {{99.5, 74.2, 26.6},
                                      {195.4, 162.7, 77.8},
                                      {300.1, 316.8, 114.4},
                                      {491.6, 554.8, 226.1}};
    for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 3; ++c) {
            const double ratio = measured[r][c] / paper_cells[r][c];
            scale_ok &= ratio > 0.5 && ratio < 2.0;
        }
    }
    ok &= bench::shape_check("table2.absolute_scale", scale_ok,
                             "every cell within 2x of the paper");
    std::printf("\nraw series written to table2_exec_time.csv\n");
    return ok ? 0 : 1;
}
