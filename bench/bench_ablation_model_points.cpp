// Ablation A3 — model-building cost versus partition quality: how many
// measured points does the FPM need before the partitioning stops
// improving?  Sweeps the point budget and reports the makespan of the
// resulting hybrid partition at n = 70 (deep out-of-core), plus the
// number of kernel invocations spent building the models.
#include <cstdio>

#include "bench_common.hpp"
#include "fpm/trace/csv.hpp"
#include "fpm/trace/table.hpp"

using namespace fpm;

int main() {
    sim::HybridNode node(sim::ig_platform(), {});
    bench::print_platform(node);
    std::printf("Ablation A3 — FPM point budget vs partition quality "
                "(hybrid node, n = 70)\n\n");

    const app::DeviceSet set = app::hybrid_devices(node);
    const std::int64_t n = 70;

    trace::Table table({"points/device", "exec time (s)", "imbalance %"});
    trace::CsvWriter csv("ablation_model_points.csv");
    csv.write_row(std::vector<std::string>{"points", "exec_s", "imbalance"});

    std::vector<double> times;
    for (const std::size_t budget : {3UL, 5UL, 8UL, 14UL, 24UL, 44UL}) {
        core::FpmBuildOptions options = bench::bench_fpm_options(5200.0);
        options.initial_points = std::min<std::size_t>(budget, 14);
        options.max_points = budget;
        const auto fpms = app::build_device_fpms(node, set, options);

        const auto plan = part::partition({fpms, n, part::Algorithm::kFpm});
        const auto result = app::run_simulated_app(node, set, plan.layout);

        double worst = 0.0;
        double best = 1e300;
        for (std::size_t i = 0; i < plan.blocks.size(); ++i) {
            if (plan.blocks[i] > 0) {
                worst = std::max(worst, result.device_iter_time[i]);
                best = std::min(best, result.device_iter_time[i]);
            }
        }
        const double imbalance = 100.0 * (1.0 - best / worst);
        table.row().cell(static_cast<std::int64_t>(budget))
            .cell(result.total_time, 1).cell(imbalance, 1);
        csv.write_row(std::vector<double>{static_cast<double>(budget),
                                          result.total_time, imbalance});
        times.push_back(result.total_time);
    }
    table.print();
    std::printf("\n");

    bool ok = true;
    // Coarse models partition measurably worse; the curve must flatten.
    ok &= bench::shape_check("ablation_points.more_points_help",
                             times.back() < times.front() * 1.001,
                             "3 points " + fixed(times.front(), 1) +
                                 " s -> 44 points " + fixed(times.back(), 1) +
                                 " s");
    const double knee = times[3];  // 14 points
    ok &= bench::shape_check("ablation_points.diminishing_returns",
                             times.back() > 0.95 * knee,
                             "beyond ~14 points the gain is < 5%");
    std::printf("\nraw series written to ablation_model_points.csv\n");
    return ok ? 0 : 1;
}
