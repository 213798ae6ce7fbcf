// Reproduces Fig. 6: per-process computation time at matrix size 60 x 60
// blocks under (a) CPM-based and (b) FPM-based partitioning.  Process 0 is
// bound to the Tesla C870 host core (socket 0) and process 6 to the
// GeForce GTX680 host core (socket 1), as in the paper.
//
// Shape criteria (paper): under the CPM the GTX680's process is the lone
// straggler (it was overloaded); under the FPM the profile is near-flat
// and the total computation time is ~40 % lower.
#include <cstdio>

#include "bench_common.hpp"
#include "fpm/trace/csv.hpp"
#include "fpm/trace/table.hpp"

using namespace fpm;

namespace {

void print_bars(const std::vector<double>& times) {
    const double worst = *std::max_element(times.begin(), times.end());
    for (std::size_t rank = 0; rank < times.size(); ++rank) {
        const int width =
            static_cast<int>(times[rank] / worst * 52.0 + 0.5);
        std::printf("  rank %2zu |%-52s| %7.1f s\n", rank,
                    std::string(static_cast<std::size_t>(width), '#').c_str(),
                    times[rank]);
    }
}

} // namespace

int main() {
    sim::HybridNode node(sim::ig_platform(), {});
    bench::print_platform(node);
    std::printf("Fig. 6 — per-process computation time, matrix 60 x 60 blocks\n\n");

    bench::HybridPipeline pipeline(node);
    const std::int64_t n = 60;

    const auto cpm_result = pipeline.run(pipeline.plan(part::Algorithm::kCpm, n));
    const auto fpm_result = pipeline.run(pipeline.plan(part::Algorithm::kFpm, n));
    const auto cpm_times =
        app::per_process_times(pipeline.set(), cpm_result.device_compute_time);
    const auto fpm_times =
        app::per_process_times(pipeline.set(), fpm_result.device_compute_time);

    std::printf("(a) CPM-based partitioning (rank 0 = Tesla C870, rank 6 = "
                "GeForce GTX680)\n");
    print_bars(cpm_times);
    std::printf("\n(b) FPM-based partitioning\n");
    print_bars(fpm_times);

    trace::CsvWriter csv("fig6_per_process.csv");
    csv.write_row(std::vector<std::string>{"rank", "cpm_seconds", "fpm_seconds"});
    for (std::size_t rank = 0; rank < cpm_times.size(); ++rank) {
        csv.write_row(std::vector<double>{static_cast<double>(rank),
                                          cpm_times[rank], fpm_times[rank]});
    }

    bool ok = true;
    // Under the CPM the GTX680 process (rank 6) is the straggler by a wide
    // margin over the median process.
    std::vector<double> sorted = cpm_times;
    std::sort(sorted.begin(), sorted.end());
    const double cpm_median = sorted[sorted.size() / 2];
    const double cpm_worst = sorted.back();
    ok &= bench::shape_check("fig6.cpm_straggler_is_gtx680",
                             cpm_times[6] == cpm_worst,
                             "rank 6 takes " + fixed(cpm_times[6], 1) + " s");
    ok &= bench::shape_check("fig6.cpm_unbalanced",
                             cpm_worst > 1.5 * cpm_median,
                             "straggler/median = " +
                                 fixed(cpm_worst / cpm_median, 2));

    // Under the FPM all busy processes finish within a tight band.
    const double fpm_worst =
        *std::max_element(fpm_times.begin(), fpm_times.end());
    const double fpm_best =
        *std::min_element(fpm_times.begin(), fpm_times.end());
    ok &= bench::shape_check("fig6.fpm_balanced", fpm_best > 0.7 * fpm_worst,
                             "min/max = " + fixed(fpm_best / fpm_worst, 2));

    // Total computation time reduced by ~40 % (paper).
    const double reduction = 1.0 - fpm_worst / cpm_worst;
    ok &= bench::shape_check("fig6.total_reduction",
                             reduction > 0.25 && reduction < 0.60,
                             "computation time reduced by " +
                                 fixed(100.0 * reduction, 1) +
                                 "% (paper ~40%)");
    std::printf("\nraw series written to fig6_per_process.csv\n");
    return ok ? 0 : 1;
}
