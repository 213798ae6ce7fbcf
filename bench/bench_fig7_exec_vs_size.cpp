// Reproduces Fig. 7: execution time of the application versus matrix size
// for the three partitioning algorithms — homogeneous, CPM-based and
// FPM-based — on the full hybrid configuration.
//
// Shape criteria (paper): homogeneous is worst everywhere (dominated by
// the slowest CPU cores); CPM tracks FPM for small sizes and diverges
// from n = 50 (past the GTX680 memory limit); in the large range the FPM
// cuts ~30 % versus CPM and ~45 % versus homogeneous.
#include <cstdio>

#include "bench_common.hpp"
#include "fpm/trace/ascii_chart.hpp"
#include "fpm/trace/csv.hpp"
#include "fpm/trace/table.hpp"

using namespace fpm;

int main() {
    sim::HybridNode node(sim::ig_platform(), {});
    bench::print_platform(node);
    std::printf("Fig. 7 — execution time vs matrix size for the three "
                "partitioning algorithms\n\n");

    bench::HybridPipeline pipeline(node);

    trace::Table table({"Matrix size n", "Homogeneous (s)", "CPM-based (s)",
                        "FPM-based (s)"});
    trace::Series se{"Homogeneous", 'h', {}, {}};
    trace::Series sc{"CPM-based", 'c', {}, {}};
    trace::Series sf{"FPM-based", 'f', {}, {}};
    trace::CsvWriter csv("fig7_exec_vs_size.csv");
    csv.write_row(std::vector<std::string>{"n", "homogeneous_s", "cpm_s",
                                           "fpm_s"});

    std::vector<std::int64_t> sizes;
    std::vector<double> t_even;
    std::vector<double> t_cpm;
    std::vector<double> t_fpm;
    for (std::int64_t n = 10; n <= 80; n += 10) {
        const auto time = [&](part::Algorithm algorithm) {
            return pipeline.run(pipeline.plan(algorithm, n)).total_time;
        };
        const double even = time(part::Algorithm::kEven);
        const double cpm = time(part::Algorithm::kCpm);
        const double fpm = time(part::Algorithm::kFpm);
        sizes.push_back(n);
        t_even.push_back(even);
        t_cpm.push_back(cpm);
        t_fpm.push_back(fpm);
        table.row().cell(n).cell(even, 1).cell(cpm, 1).cell(fpm, 1);
        se.xs.push_back(static_cast<double>(n));
        se.ys.push_back(even);
        sc.xs.push_back(static_cast<double>(n));
        sc.ys.push_back(cpm);
        sf.xs.push_back(static_cast<double>(n));
        sf.ys.push_back(fpm);
        csv.write_row(std::vector<double>{static_cast<double>(n), even, cpm, fpm});
    }
    table.print();
    std::printf("\n%s\n", trace::render_chart({se, sc, sf},
                                              {.width = 72,
                                               .height = 18,
                                               .x_label = "Matrix size n",
                                               .y_label = "Execution time (s)"})
                              .c_str());

    bool ok = true;
    bool fpm_never_worse = true;
    bool homogeneous_worst_large = true;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        fpm_never_worse &= t_fpm[i] <= t_cpm[i] * 1.02 &&
                           t_fpm[i] <= t_even[i] * 1.02;
        if (sizes[i] >= 40) {
            homogeneous_worst_large &= t_even[i] > t_cpm[i];
        }
    }
    ok &= bench::shape_check("fig7.fpm_never_worse", fpm_never_worse,
                             "FPM <= CPM and <= homogeneous at every size");
    ok &= bench::shape_check("fig7.homogeneous_worst", homogeneous_worst_large,
                             "homogeneous slowest in the large range");

    // CPM tracks FPM at small sizes, diverges at n >= 50.
    const double small_gap = t_cpm[2] / t_fpm[2];  // n = 30
    const double large_gap = t_cpm[6] / t_fpm[6];  // n = 70
    ok &= bench::shape_check("fig7.cpm_tracks_small", small_gap < 1.15,
                             "CPM/FPM = " + fixed(small_gap, 2) + " at n=30");
    ok &= bench::shape_check("fig7.cpm_diverges_large", large_gap > 1.2,
                             "CPM/FPM = " + fixed(large_gap, 2) + " at n=70");

    // Reductions in the large range (paper: ~30 % vs CPM, ~45 % vs even).
    const double vs_cpm = 1.0 - t_fpm[6] / t_cpm[6];
    const double vs_even = 1.0 - t_fpm[6] / t_even[6];
    ok &= bench::shape_check("fig7.reduction_vs_cpm",
                             vs_cpm > 0.18 && vs_cpm < 0.50,
                             fixed(100.0 * vs_cpm, 1) + "% at n=70 (paper ~30%)");
    ok &= bench::shape_check("fig7.reduction_vs_homogeneous",
                             vs_even > 0.30 && vs_even < 0.65,
                             fixed(100.0 * vs_even, 1) + "% at n=70 (paper ~45%)");
    std::printf("\nraw series written to fig7_exec_vs_size.csv\n");
    return ok ? 0 : 1;
}
