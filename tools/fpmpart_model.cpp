// fpmpart_model — build functional performance models and save them.
//
// Builds the FPMs of a device configuration and writes them as a model
// CSV that fpmpart_partition (or any user of core::load_speed_functions_csv)
// consumes.  Sources:
//
//   --source sim      the simulated ig.icl.utk.edu node (default)
//   --source host     the real GEMM on this machine (one CPU device)
//
// Defaults: --source sim --config hybrid --version 3 --noise 0
//           --xmax 5200 --points 44 --out models.csv
// (run with an unknown flag to see the generated usage text)
#include <cstdio>
#include <string>

#include "fpm/app/device_set.hpp"
#include "fpm/core/model_io.hpp"
#include "tool_args.hpp"

int main(int argc, char** argv) {
    using namespace fpm;
    try {
        std::string source = "sim";
        std::string config = "hybrid";
        int version_arg = 3;
        double noise = 0.0;
        double x_max = 5200.0;
        std::size_t points = 44;
        std::string out = "models.csv";

        fpmtool::FlagTable flags("fpmpart_model");
        flags.bind("--source", "sim|host", &source)
            .bind("--config", "hybrid|cpu|gpu0|gpu1", &config)
            .bind("--version", "1|2|3", &version_arg, 1, 3)
            .bind("--noise", "SIGMA", &noise, 0.0)
            .bind("--xmax", "BLOCKS", &x_max, 1.0)
            .bind("--points", "N", &points, 1)
            .bind("--out", "FILE", &out)
            .trace();
        if (!flags.parse(argc, argv)) {
            return 2;
        }
        if (source != "sim" && source != "host") {
            std::fprintf(stderr, "unknown --source '%s'\n%s", source.c_str(),
                         flags.usage().c_str());
            return 2;
        }

        core::FpmBuildOptions options;
        options.x_min = 4.0;
        options.x_max = x_max;
        options.initial_points = std::min<std::size_t>(14, points);
        options.max_points = points;
        if (noise > 0.0) {
            options.reliability.min_repetitions = 3;
            options.reliability.max_repetitions = 30;
            options.reliability.target_relative_error = 0.02;
        } else {
            options.reliability.min_repetitions = 1;
            options.reliability.max_repetitions = 1;
        }

        std::vector<core::SpeedFunction> models;

        if (source == "host") {
            if (config != "hybrid") {
                std::fprintf(stderr,
                             "--config is ignored with --source host\n");
            }
            core::RealGemmKernelBench bench(64, 2);
            options.x_max = std::min(options.x_max, 128.0);
            options.reliability.min_repetitions = 3;
            options.reliability.max_repetitions = 10;
            options.reliability.target_relative_error = 0.1;
            options.reliability.max_total_seconds = 5.0;
            models.push_back(core::build_fpm(bench, options));
        } else {
            sim::SimOptions sim_options;
            sim_options.noise_sigma = noise;
            sim::HybridNode node(sim::ig_platform(), sim_options);
            const auto kernel_version = static_cast<sim::KernelVersion>(
                std::clamp(version_arg, 1, 3));

            app::DeviceSet set;
            if (config == "hybrid") {
                set = app::hybrid_devices(node, kernel_version);
            } else if (config == "cpu") {
                set = app::cpu_only_devices(node);
            } else if (config == "gpu0") {
                set = app::single_gpu_devices(node, 0, kernel_version);
            } else if (config == "gpu1") {
                set = app::single_gpu_devices(node, 1, kernel_version);
            } else {
                std::fprintf(stderr, "unknown --config '%s'\n%s",
                             config.c_str(), flags.usage().c_str());
                return 2;
            }
            models = app::build_device_fpms(node, set, options);
        }

        core::save_speed_functions_csv(out, models);
        std::printf("wrote %zu model(s) to %s\n", models.size(), out.c_str());
        for (const auto& model : models) {
            std::printf("  %-24s %3zu points, x in [%.0f, %.0f]\n",
                        model.name().c_str(), model.points().size(),
                        model.points().front().x, model.points().back().x);
        }
        return 0;
    } catch (const std::exception& e) {
        fpmtool::print_error(e);
        return 1;
    }
}
