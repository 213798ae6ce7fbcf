// Ablation A4 — the linear performance model (LPM, refs [3]/[4] of the
// paper) as a third baseline between CPM and FPM: t(x) = alpha + beta*x
// fitted per device.  A linear fit calibrated across the whole range
// averages the GPU's in-core and out-of-core regimes; it behaves better
// than the CPM at large sizes but cannot match the FPM near the memory
// cliff, where the time function is genuinely non-linear.
#include <cstdio>

#include "bench_common.hpp"
#include "fpm/core/models.hpp"
#include "fpm/trace/csv.hpp"
#include "fpm/trace/table.hpp"

using namespace fpm;

int main() {
    sim::HybridNode node(sim::ig_platform(), {});
    bench::print_platform(node);
    std::printf("Ablation A4 — homogeneous vs CPM vs LPM vs FPM partitioning\n\n");

    bench::HybridPipeline pipeline(node);
    const auto& set = pipeline.set();

    // Fit one LPM per device over a spread of sizes.
    measure::ReliabilityOptions quick;
    quick.min_repetitions = 1;
    quick.max_repetitions = 1;
    std::vector<core::SpeedFunction> lpm_models;
    for (std::size_t i = 0; i < set.devices.size(); ++i) {
        auto bench = app::make_device_bench(node, set, i);
        const auto lpm = core::build_lpm(
            *bench, {100.0, 500.0, 1200.0, 2500.0, 4000.0}, quick);
        lpm_models.push_back(lpm.to_speed_function(4.0, 5200.0));
    }

    trace::Table table({"n", "Homogeneous (s)", "CPM (s)", "LPM (s)", "FPM (s)"});
    trace::CsvWriter csv("ablation_lpm.csv");
    csv.write_row(std::vector<std::string>{"n", "even_s", "cpm_s", "lpm_s",
                                           "fpm_s"});

    double lpm70 = 0.0;
    double cpm70 = 0.0;
    double fpm70 = 0.0;
    for (std::int64_t n = 20; n <= 80; n += 10) {
        const auto time = [&](part::Algorithm algorithm) {
            return pipeline.run(pipeline.plan(algorithm, n)).total_time;
        };
        const double even = time(part::Algorithm::kEven);
        const double cpm = time(part::Algorithm::kCpm);
        const double lpm =
            pipeline.run(part::partition({lpm_models, n, part::Algorithm::kFpm}))
                .total_time;
        const double fpm = time(part::Algorithm::kFpm);

        table.row().cell(n).cell(even, 1).cell(cpm, 1).cell(lpm, 1).cell(fpm, 1);
        csv.write_row(std::vector<double>{static_cast<double>(n), even, cpm,
                                          lpm, fpm});
        if (n == 70) {
            lpm70 = lpm;
            cpm70 = cpm;
            fpm70 = fpm;
        }
    }
    table.print();
    std::printf("\n");

    bool ok = true;
    ok &= bench::shape_check("ablation_lpm.lpm_beats_cpm_large", lpm70 < cpm70,
                             "n=70: LPM " + fixed(lpm70, 1) + " s < CPM " +
                                 fixed(cpm70, 1) + " s");
    ok &= bench::shape_check("ablation_lpm.fpm_beats_lpm", fpm70 <= lpm70 * 1.01,
                             "n=70: FPM " + fixed(fpm70, 1) + " s <= LPM " +
                                 fixed(lpm70, 1) + " s");
    std::printf("\nraw series written to ablation_lpm.csv\n");
    return ok ? 0 : 1;
}
