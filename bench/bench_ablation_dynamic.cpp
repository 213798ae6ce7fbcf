// Ablation A5 — static FPM partitioning vs dynamic task-queue scheduling
// (the paper's related-work trade-off, made quantitative):
//
//  * dedicated platform: static wins — no migration, full data locality,
//    provably-near-optimal balance from the models;
//  * non-dedicated platform (a socket loses most of its speed partway
//    through): the static partition stalls on the straggler while the
//    dynamic queue reroutes tasks around it.
#include <cstdio>

#include "bench_common.hpp"
#include "fpm/app/dynamic_sched.hpp"
#include "fpm/trace/csv.hpp"
#include "fpm/trace/table.hpp"

using namespace fpm;

int main() {
    sim::HybridNode node(sim::ig_platform(), {});
    bench::print_platform(node);
    std::printf("Ablation A5 — static FPM partitioning vs dynamic task-queue "
                "scheduling (n = 40)\n\n");

    bench::HybridPipeline pipeline(node);
    const app::DeviceSet& set = pipeline.set();
    const std::int64_t n = 40;
    const auto fpm = pipeline.plan(part::Algorithm::kFpm, n);

    // --- dedicated platform -------------------------------------------
    const double static_dedicated =
        app::run_static_app_perturbed(node, set, fpm.layout);

    trace::Table table({"strategy", "granularity", "dedicated (s)",
                        "perturbed (s)"});
    trace::CsvWriter csv("ablation_dynamic.csv");
    csv.write_row(std::vector<std::string>{"strategy", "granularity",
                                           "dedicated_s", "perturbed_s"});

    // --- non-dedicated: socket 3 drops to 25 % after a quarter of the
    //     unperturbed runtime -------------------------------------------
    std::size_t loaded_device = 0;
    for (std::size_t i = 0; i < set.devices.size(); ++i) {
        if (set.devices[i].kind == app::DeviceKind::kCpuSocket &&
            set.devices[i].socket == 3) {
            loaded_device = i;
        }
    }
    const app::SpeedModulation modulation = [&](std::size_t device,
                                                double time) {
        return (device == loaded_device && time > static_dedicated / 4.0)
                   ? 0.25
                   : 1.0;
    };
    const double static_perturbed =
        app::run_static_app_perturbed(node, set, fpm.layout, modulation);

    table.row().cell("static FPM").cell("-").cell(static_dedicated, 1)
        .cell(static_perturbed, 1);
    csv.write_row(std::vector<std::string>{
        "static", "-", fixed(static_dedicated, 3), fixed(static_perturbed, 3)});

    double best_dynamic_dedicated = 1e300;
    double best_dynamic_perturbed = 1e300;
    for (const std::int64_t g : {2L, 4L, 8L}) {
        app::DynamicOptions options;
        options.granularity = g;
        const double dedicated =
            app::run_dynamic_app(node, set, n, options).total_time;
        const double perturbed =
            app::run_dynamic_app(node, set, n, options, modulation).total_time;
        table.row().cell("dynamic queue").cell(g).cell(dedicated, 1)
            .cell(perturbed, 1);
        csv.write_row(std::vector<std::string>{"dynamic", std::to_string(g),
                                               fixed(dedicated, 3),
                                               fixed(perturbed, 3)});
        best_dynamic_dedicated = std::min(best_dynamic_dedicated, dedicated);
        best_dynamic_perturbed = std::min(best_dynamic_perturbed, perturbed);
    }
    table.print();
    std::printf("\n");

    bool ok = true;
    ok &= bench::shape_check("ablation_dynamic.static_wins_dedicated",
                             static_dedicated < best_dynamic_dedicated,
                             "static " + fixed(static_dedicated, 1) +
                                 " s < best dynamic " +
                                 fixed(best_dynamic_dedicated, 1) + " s");
    ok &= bench::shape_check("ablation_dynamic.dynamic_wins_perturbed",
                             best_dynamic_perturbed < static_perturbed,
                             "best dynamic " + fixed(best_dynamic_perturbed, 1) +
                                 " s < static " + fixed(static_perturbed, 1) +
                                 " s under load change");
    ok &= bench::shape_check("ablation_dynamic.static_hurt_by_load",
                             static_perturbed > 1.3 * static_dedicated,
                             "static degrades " +
                                 fixed(static_perturbed / static_dedicated, 2) +
                                 "x when a socket is loaded");
    std::printf("\nraw series written to ablation_dynamic.csv\n");
    return ok ? 0 : 1;
}
