// fpmpart_partition — partition a workload using saved models.
//
// Loads a model CSV (see fpmpart_model / core::model_io), runs the chosen
// partitioning algorithm for an n x n block matrix through the
// fpm::part::partition facade, and prints the per-device shares, the
// balanced-time prediction and the 2-D column layout.  Optionally writes
// the layout as CSV.
//
// Usage:
//   fpmpart_partition --models FILE --n SIZE
//                     [--algorithm fpm|cpm|even] [--layout-out FILE]
//                     [--trace FILE]
//
// The CPM variant reduces every model to its speed at the even share
// (the traditional approach the paper compares against).
#include <cstdio>
#include <string>

#include "fpm/core/model_io.hpp"
#include "fpm/part/request.hpp"
#include "fpm/trace/csv.hpp"
#include "fpm/trace/table.hpp"
#include "tool_args.hpp"

int main(int argc, char** argv) {
    using namespace fpm;
    try {
        std::string models_path;
        std::int64_t n = 0;
        std::string algorithm_text = "fpm";
        std::string layout_out;

        fpmtool::FlagTable flags("fpmpart_partition");
        flags.bind("--models", "FILE", &models_path).require()
            .bind("--n", "SIZE", &n, 1).require()
            .bind("--algorithm", "fpm|cpm|even", &algorithm_text)
            .bind("--layout-out", "FILE", &layout_out)
            .trace();
        if (!flags.parse(argc, argv)) {
            return 2;
        }
        // Reject a bad algorithm before paying for the model load.
        const auto algorithm = part::parse_algorithm(algorithm_text);
        if (!algorithm.has_value()) {
            std::fprintf(stderr, "unknown --algorithm '%s'\n%s",
                         algorithm_text.c_str(), flags.usage().c_str());
            return 2;
        }

        const auto models = core::load_speed_functions_csv(models_path);

        part::PartitionRequest request;
        request.models = models;
        request.n = n;
        request.algorithm = *algorithm;
        request.with_layout = true;
        const part::PartitionPlan plan = part::partition(request);
        const double total = static_cast<double>(n) * static_cast<double>(n);

        std::printf("%s partitioning of a %lld x %lld block matrix over %zu "
                    "device(s)\n\n",
                    part::to_string(plan.algorithm), static_cast<long long>(n),
                    static_cast<long long>(n), models.size());

        trace::Table table({"device", "blocks", "share %", "rect",
                            "predicted time (s)"});
        for (std::size_t i = 0; i < models.size(); ++i) {
            const auto& rect = plan.layout.rects[i];
            table.row()
                .cell(models[i].name())
                .cell(plan.blocks[i])
                .cell(100.0 * static_cast<double>(plan.blocks[i]) / total, 1)
                .cell(std::to_string(rect.w) + " x " + std::to_string(rect.h))
                .cell(models[i].time(static_cast<double>(plan.blocks[i])), 3);
        }
        table.print();
        std::printf("\npredicted makespan: %.3f s", plan.makespan);
        if (plan.balanced_time > 0.0) {
            std::printf(" (balanced time %.3f s)", plan.balanced_time);
        }
        std::printf("\ncommunication cost (half-perimeter sum): %lld blocks\n",
                    static_cast<long long>(plan.comm_cost));

        if (!layout_out.empty()) {
            trace::CsvWriter csv(layout_out);
            csv.write_row(std::vector<std::string>{"device", "col0", "row0",
                                                   "w", "h"});
            for (std::size_t i = 0; i < plan.layout.rects.size(); ++i) {
                const auto& rect = plan.layout.rects[i];
                csv.write_row(std::vector<std::string>{
                    models[i].name(), std::to_string(rect.col0),
                    std::to_string(rect.row0), std::to_string(rect.w),
                    std::to_string(rect.h)});
            }
            std::printf("layout written to %s\n", layout_out.c_str());
        }
        return 0;
    } catch (const std::exception& e) {
        fpmtool::print_error(e);
        return 1;
    }
}
