// Ablation A6 — one-shot area-based FPM partitioning vs the shape-aware
// iterative refinement (Clarke et al., ref [17]): how much does closing
// the loop over actual rectangle shapes buy on the hybrid node?
//
// On this platform rectangles come out near-square, so the paper's
// approximation ("the speed for a given area does not vary with nearly
// square shapes") holds and the gain is small — which is itself the
// result worth demonstrating.  A synthetic strongly-shape-sensitive
// device shows the loop earning its keep when the assumption breaks.
#include <cstdio>

#include "bench_common.hpp"
#include "fpm/part/iterative.hpp"
#include "fpm/trace/table.hpp"

using namespace fpm;

int main() {
    sim::HybridNode node(sim::ig_platform(), {});
    bench::print_platform(node);
    std::printf("Ablation A6 — one-shot vs shape-aware iterative "
                "partitioning\n\n");

    bench::HybridPipeline pipeline(node);
    const app::DeviceSet& set = pipeline.set();
    const auto& models = pipeline.fpms();

    // Shape oracle = the simulator itself.
    const part::RectTimeFn oracle = [&](std::size_t device,
                                        const part::Rect& rect) {
        return app::rect_time(node, set, device, rect);
    };

    trace::Table table({"n", "one-shot makespan (s)", "iterative (s)",
                        "rounds", "gain %"});
    bool ok = true;
    double worst_gain = 0.0;
    for (const std::int64_t n : {40L, 60L, 80L}) {
        // One-shot: area partition, then price the layout with the oracle.
        const auto layout = pipeline.plan(part::Algorithm::kFpm, n).layout;
        double one_shot = 0.0;
        for (std::size_t i = 0; i < layout.rects.size(); ++i) {
            if (layout.rects[i].area() > 0) {
                one_shot = std::max(one_shot, oracle(i, layout.rects[i]));
            }
        }

        const auto refined = part::partition_iterative(models, n, oracle);
        const double gain = 1.0 - refined.makespan / one_shot;
        worst_gain = std::min(worst_gain, gain);
        table.row().cell(n).cell(one_shot, 3).cell(refined.makespan, 3)
            .cell(static_cast<std::int64_t>(refined.rounds))
            .cell(100.0 * gain, 2);
        ok &= refined.makespan <= one_shot + 1e-9;
    }
    table.print();
    std::printf("\n");

    ok &= bench::shape_check("ablation_iterative.never_worse", ok,
                             "iterative <= one-shot at every size");

    // Synthetic shape-sensitive device: +3 % time per block of width.
    const std::vector<core::SpeedFunction> synth = {
        core::SpeedFunction::constant(40.0, "wide-penalised"),
        core::SpeedFunction::constant(20.0, "steady"),
    };
    const part::RectTimeFn synth_oracle = [&](std::size_t device,
                                              const part::Rect& rect) {
        const double base = synth[device].time(static_cast<double>(rect.area()));
        return device == 0 ? base * (1.0 + 0.03 * static_cast<double>(rect.w))
                           : base;
    };
    const std::int64_t n = 30;
    const auto synth_layout =
        part::partition({synth, n, part::Algorithm::kFpm}).layout;
    double synth_one_shot = 0.0;
    for (std::size_t i = 0; i < synth_layout.rects.size(); ++i) {
        synth_one_shot =
            std::max(synth_one_shot, synth_oracle(i, synth_layout.rects[i]));
    }
    const auto synth_refined = part::partition_iterative(synth, n, synth_oracle);
    const double synth_gain = 1.0 - synth_refined.makespan / synth_one_shot;
    std::printf("synthetic shape-sensitive device: one-shot %.2f s, "
                "iterative %.2f s (gain %.1f%%)\n\n",
                synth_one_shot, synth_refined.makespan, 100.0 * synth_gain);
    ok &= bench::shape_check("ablation_iterative.earns_keep_when_needed",
                             synth_gain > 0.03,
                             fixed(100.0 * synth_gain, 1) +
                                 "% gain on a shape-sensitive device");
    ok &= bench::shape_check(
        "ablation_iterative.small_on_near_square", worst_gain > -0.01,
        "near-square shapes: paper's area-only approximation holds");
    return ok ? 0 : 1;
}
