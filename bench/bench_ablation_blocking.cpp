// Ablation A1 — the blocking factor b (paper section V): larger b
// amortises per-iteration communication and boosts the optimised kernels,
// but too-coarse granularity leaves fewer blocks to balance the load with.
// The paper tunes b = 640 for its platform; this bench sweeps b and shows
// the trade-off on the hybrid FPM configuration at a fixed element count.
#include <cstdio>

#include "bench_common.hpp"
#include "fpm/trace/csv.hpp"
#include "fpm/trace/table.hpp"

using namespace fpm;

int main() {
    std::printf("Ablation A1 — blocking factor sweep (fixed matrix of "
                "25600^2 elements, hybrid FPM partitioning)\n\n");

    trace::Table table({"b", "n (blocks)", "exec time (s)", "imbalance %",
                        "comm share %"});
    trace::CsvWriter csv("ablation_blocking.csv");
    csv.write_row(std::vector<std::string>{"b", "n", "exec_s", "imbalance",
                                           "comm_share"});

    constexpr std::int64_t kElements = 25600;  // n = 40 at b = 640
    double best_time = 1e300;
    std::size_t best_b = 0;
    std::vector<double> times;

    for (const std::size_t b : {160UL, 320UL, 640UL, 1280UL, 2560UL, 6400UL}) {
        sim::SimOptions options;
        options.block_size = b;
        sim::HybridNode node(sim::ig_platform(), options);
        const std::int64_t n = kElements / static_cast<std::int64_t>(b);

        bench::HybridPipeline pipeline(
            node, static_cast<double>(n) * static_cast<double>(n) + 16.0);
        const auto plan = pipeline.plan(part::Algorithm::kFpm, n);
        const auto result = pipeline.run(plan);

        // Load imbalance across busy devices for this granularity.
        double worst = 0.0;
        double best = 1e300;
        for (std::size_t i = 0; i < plan.blocks.size(); ++i) {
            if (plan.blocks[i] > 0) {
                worst = std::max(worst, result.device_iter_time[i]);
                best = std::min(best, result.device_iter_time[i]);
            }
        }
        const double imbalance = 100.0 * (1.0 - best / worst);
        const double comm_share = 100.0 * result.comm_time / result.total_time;

        table.row().cell(static_cast<std::int64_t>(b)).cell(n)
            .cell(result.total_time, 1).cell(imbalance, 1).cell(comm_share, 2);
        csv.write_row(std::vector<double>{static_cast<double>(b),
                                          static_cast<double>(n),
                                          result.total_time, imbalance,
                                          comm_share});
        times.push_back(result.total_time);
        if (result.total_time < best_time) {
            best_time = result.total_time;
            best_b = b;
        }
    }
    table.print();
    std::printf("\nbest blocking factor on this model: b = %zu\n\n", best_b);

    bool ok = true;
    // The trade-off shape: the optimum is interior — both the finest and
    // the coarsest granularities lose to the best b.
    ok &= bench::shape_check("ablation_blocking.interior_optimum",
                             best_time < times.front() && best_time < times.back(),
                             "finest " + fixed(times.front(), 1) + " s, best " +
                                 fixed(best_time, 1) + " s, coarsest " +
                                 fixed(times.back(), 1) + " s");
    std::printf("\nraw series written to ablation_blocking.csv\n");
    return ok ? 0 : 1;
}
