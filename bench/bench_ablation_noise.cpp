// Ablation A8 — robustness of the pipeline to measurement noise: how does
// the quality of the final partition degrade as the kernel timings jitter,
// and how much does the repeat-until-reliable loop recover?
//
// For each noise level sigma (lognormal multiplicative jitter) the FPMs
// are rebuilt and the hybrid node is repartitioned at n = 60; the quality
// metric is the true (noise-free) makespan of the resulting layout,
// relative to the makespan obtained from exact models.
#include <cstdio>

#include "bench_common.hpp"
#include "fpm/trace/csv.hpp"
#include "fpm/trace/table.hpp"

using namespace fpm;

namespace {

/// Builds models on a noisy node and prices the resulting partition on an
/// exact twin.
double partition_quality(double sigma, bool reliable, std::uint64_t seed,
                         const std::vector<core::SpeedFunction>& exact_models) {
    sim::SimOptions options;
    options.noise_sigma = sigma;
    options.noise_seed = seed;
    sim::HybridNode noisy(sim::ig_platform(), options);
    const app::DeviceSet set = app::hybrid_devices(noisy);

    core::FpmBuildOptions model_options = bench::bench_fpm_options(5200.0);
    if (reliable && sigma > 0.0) {
        model_options.reliability.min_repetitions = 5;
        model_options.reliability.max_repetitions = 40;
        model_options.reliability.target_relative_error = 0.02;
    }
    const auto models = app::build_device_fpms(noisy, set, model_options);

    const auto plan = part::partition({models, 60, part::Algorithm::kFpm});

    // True cost under the exact models.
    return part::makespan(exact_models, plan.blocks);
}

} // namespace

int main() {
    sim::HybridNode exact_node(sim::ig_platform(), {});
    bench::print_platform(exact_node);
    std::printf("Ablation A8 — partition quality vs measurement noise "
                "(hybrid node, n = 60)\n\n");

    const app::DeviceSet exact_set = app::hybrid_devices(exact_node);
    const auto exact_models = app::build_device_fpms(
        exact_node, exact_set, bench::bench_fpm_options(5200.0));
    const double baseline = partition_quality(0.0, false, 1, exact_models);

    trace::Table table({"noise sigma", "1 repetition (% over exact)",
                        "reliability loop (% over exact)"});
    trace::CsvWriter csv("ablation_noise.csv");
    csv.write_row(std::vector<std::string>{"sigma", "single_rep_pct",
                                           "reliable_pct"});

    double worst_single = 0.0;
    double worst_reliable = 0.0;
    for (const double sigma : {0.02, 0.05, 0.10, 0.20}) {
        // Average over a few seeds so one lucky draw cannot hide the
        // degradation.
        double single = 0.0;
        double reliable = 0.0;
        const int seeds = 3;
        for (int s = 0; s < seeds; ++s) {
            single += partition_quality(sigma, false, 10 + s, exact_models);
            reliable += partition_quality(sigma, true, 10 + s, exact_models);
        }
        single /= seeds;
        reliable /= seeds;
        const double single_pct = 100.0 * (single / baseline - 1.0);
        const double reliable_pct = 100.0 * (reliable / baseline - 1.0);
        worst_single = std::max(worst_single, single_pct);
        worst_reliable = std::max(worst_reliable, reliable_pct);
        table.row().cell(sigma, 2).cell(single_pct, 2).cell(reliable_pct, 2);
        csv.write_row(std::vector<double>{sigma, single_pct, reliable_pct});
    }
    table.print();
    std::printf("\n");

    bool ok = true;
    ok &= bench::shape_check("ablation_noise.reliability_loop_helps",
                             worst_reliable < worst_single,
                             "worst degradation " + fixed(worst_reliable, 2) +
                                 "% with the loop vs " + fixed(worst_single, 2) +
                                 "% without");
    ok &= bench::shape_check("ablation_noise.graceful_degradation",
                             worst_reliable < 10.0,
                             "partition stays within 10% of exact up to "
                             "sigma = 0.20 with the reliability loop");
    std::printf("\nraw series written to ablation_noise.csv\n");
    return ok ? 0 : 1;
}
