// partition_explorer: interactive-ish exploration of how the three
// partitioning algorithms distribute work on the simulated hybrid node as
// the problem grows across the GPU memory cliff.
//
// For each matrix size it prints the per-device blocks of the
// homogeneous, CPM-based and FPM-based plans side by side, with the
// predicted makespan of each, and draws the FPM 2-D layout as ASCII art.
//
// Usage: ./examples/partition_explorer [n1 n2 ...]   (default: 30 50 70)
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "fpm/app/device_set.hpp"
#include "fpm/part/request.hpp"
#include "fpm/trace/table.hpp"

namespace {

void draw_layout(const fpm::part::ColumnLayout& layout,
                 const fpm::app::DeviceSet& set) {
    // Scale the n x n block grid to a character canvas.
    const std::size_t canvas_w = 64;
    const std::size_t canvas_h = 24;
    std::vector<std::string> canvas(canvas_h, std::string(canvas_w, ' '));
    const char* glyphs = "12345678";
    for (std::size_t i = 0; i < layout.rects.size(); ++i) {
        const auto& rect = layout.rects[i];
        if (rect.area() == 0) {
            continue;
        }
        const auto scale_col = [&](std::int64_t c) {
            return static_cast<std::size_t>(c * static_cast<std::int64_t>(canvas_w) /
                                            layout.n);
        };
        const auto scale_row = [&](std::int64_t r) {
            return static_cast<std::size_t>(r * static_cast<std::int64_t>(canvas_h) /
                                            layout.n);
        };
        for (std::size_t row = scale_row(rect.row0);
             row < std::max(scale_row(rect.row0 + rect.h), scale_row(rect.row0) + 1);
             ++row) {
            for (std::size_t col = scale_col(rect.col0);
                 col < std::max(scale_col(rect.col0 + rect.w), scale_col(rect.col0) + 1);
                 ++col) {
                if (row < canvas_h && col < canvas_w) {
                    canvas[row][col] = glyphs[i % 8];
                }
            }
        }
    }
    std::printf("  +%s+\n", std::string(canvas_w, '-').c_str());
    for (const auto& row : canvas) {
        std::printf("  |%s|\n", row.c_str());
    }
    std::printf("  +%s+\n  legend:", std::string(canvas_w, '-').c_str());
    for (std::size_t i = 0; i < set.devices.size(); ++i) {
        std::printf("  %c=%s", glyphs[i % 8], set.devices[i].name.c_str());
    }
    std::printf("\n");
}

} // namespace

int main(int argc, char** argv) {
    using namespace fpm;

    std::vector<std::int64_t> sizes;
    for (int i = 1; i < argc; ++i) {
        sizes.push_back(std::strtol(argv[i], nullptr, 10));
    }
    if (sizes.empty()) {
        sizes = {30, 50, 70};
    }

    sim::HybridNode node(sim::ig_platform(), {});
    const app::DeviceSet set = app::hybrid_devices(node);

    core::FpmBuildOptions options;
    options.x_min = 4.0;
    options.x_max = 5200.0;
    options.reliability.min_repetitions = 1;
    options.reliability.max_repetitions = 1;
    const auto fpms = app::build_device_fpms(node, set, options);

    for (const std::int64_t n : sizes) {
        const double total = static_cast<double>(n) * static_cast<double>(n);
        std::printf("\n=== matrix %lld x %lld blocks (%.0f total) ===\n\n",
                    static_cast<long long>(n), static_cast<long long>(n), total);

        const auto cpms = app::build_device_cpms(node, set, total);
        const auto even = part::partition({fpms, n, part::Algorithm::kEven});
        const auto cpm = part::partition({cpms, n, part::Algorithm::kCpm});
        const auto fpm = part::partition({fpms, n, part::Algorithm::kFpm});

        trace::Table table({"device", "homogeneous", "CPM", "FPM",
                            "FPM time (s)"});
        for (std::size_t i = 0; i < set.devices.size(); ++i) {
            table.row()
                .cell(set.devices[i].name)
                .cell(even.blocks[i])
                .cell(cpm.blocks[i])
                .cell(fpm.blocks[i])
                .cell(fpms[i].time(static_cast<double>(fpm.blocks[i])), 2);
        }
        table.print();
        std::printf("\npredicted makespans: homogeneous %.2f s, CPM %.2f s, "
                    "FPM %.2f s (per kernel sweep)\n",
                    even.makespan, part::makespan(fpms, cpm.blocks),
                    fpm.makespan);

        std::printf("\nFPM column layout:\n");
        draw_layout(fpm.layout, set);
    }
    return 0;
}
