// google-benchmark micro-benchmarks of the partitioning algorithms
// themselves: the FPM geometric partitioner's exact solve for the balanced
// time, integer rounding, the 2-D column layout and the whole
// part::partition pipeline, across device counts.  The FPM benches report
// `evaluations`, the mean number of times a call sums the devices' shares
// at a trial time; the sweeps over the service benchmark's sizes report
// `s_per_plan`, the time per size.
#include <benchmark/benchmark.h>

#include "fpm/app/device_set.hpp"
#include "fpm/common/rng.hpp"
#include "fpm/part/column2d.hpp"
#include "fpm/part/fpm_partitioner.hpp"
#include "fpm/part/integer.hpp"
#include "fpm/part/request.hpp"
#include "fpm/sim/specs.hpp"

namespace {

using fpm::core::SpeedFunction;
using fpm::core::SpeedPoint;

std::vector<SpeedFunction> synthetic_devices(std::size_t count) {
    std::vector<SpeedFunction> models;
    fpm::Rng rng(count);
    for (std::size_t i = 0; i < count; ++i) {
        std::vector<SpeedPoint> points;
        const double peak = rng.uniform(20.0, 900.0);
        const double cliff = rng.uniform(400.0, 3000.0);
        for (double x = 8.0; x <= 5000.0; x *= 1.5) {
            const double speed =
                (x < cliff ? peak : 0.4 * peak) * x / (x + 10.0);
            points.push_back(SpeedPoint{x, speed});
        }
        models.emplace_back(std::move(points), "dev" + std::to_string(i));
    }
    return models;
}

void BM_FpmPartition(benchmark::State& state) {
    const auto models = synthetic_devices(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        const auto result = fpm::part::partition_fpm(models, 4900.0);
        benchmark::DoNotOptimize(result.partition.share.data());
    }
}
BENCHMARK(BM_FpmPartition)->Arg(2)->Arg(6)->Arg(24)->Arg(96);

/// The kind of model the service benchmark plans on: `nodes` noisy
/// re-measurements of the paper's hybrid node (6 devices each, 14-38 knots
/// per model), seeded as the partitioner's pin test seeds its 6- and
/// 24-device sets.
std::vector<SpeedFunction> noisy_hybrid_nodes(std::uint64_t nodes) {
    std::vector<SpeedFunction> models;
    for (std::uint64_t node = 0; node < nodes; ++node) {
        fpm::sim::SimOptions options;
        options.noise_sigma = 0.03;
        options.noise_seed = nodes == 1 ? 11 : 100 + node;
        fpm::sim::HybridNode hybrid(fpm::sim::ig_platform(), options);
        fpm::core::FpmBuildOptions build;
        build.x_min = 4.0;
        build.x_max = 5200.0;
        build.initial_points = 14;
        build.max_points = 44;
        build.reliability.min_repetitions = 1;
        build.reliability.max_repetitions = 1;
        const auto part = fpm::app::build_device_fpms(
            hybrid, fpm::app::hybrid_devices(hybrid), build);
        models.insert(models.end(), part.begin(), part.end());
    }
    return models;
}

void BM_FpmPartitionHybrid(benchmark::State& state) {
    const auto nodes = static_cast<std::uint64_t>(state.range(0)) / 6;
    const auto models = noisy_hybrid_nodes(nodes);
    double evaluations = 0.0;
    for (auto _ : state) {
        const auto result = fpm::part::partition_fpm(models, 100.0 * 100.0);
        evaluations += static_cast<double>(result.iterations);
        benchmark::DoNotOptimize(result.partition.share.data());
    }
    state.counters["evaluations"] =
        benchmark::Counter(evaluations, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FpmPartitionHybrid)->Arg(6)->Arg(24);

// The service benchmark's range of n.
constexpr std::int64_t kSweepFirst = 16;
constexpr std::int64_t kSweepLast = 150;
constexpr auto kSweepSizes = static_cast<double>(kSweepLast - kSweepFirst + 1);

/// Seconds per size of a sweep.
benchmark::Counter per_plan() {
    return benchmark::Counter(kSweepSizes,
                              benchmark::Counter::kIsIterationInvariantRate |
                                  benchmark::Counter::kInvert);
}

// One iteration plans every n of the service benchmark's range on the
// same sets; `evaluations` is per plan.
void BM_FpmPartitionHybridSweep(benchmark::State& state) {
    const auto nodes = static_cast<std::uint64_t>(state.range(0)) / 6;
    const auto models = noisy_hybrid_nodes(nodes);
    double evaluations = 0.0;
    for (auto _ : state) {
        for (std::int64_t n = kSweepFirst; n <= kSweepLast; ++n) {
            const auto result = fpm::part::partition_fpm(
                models, static_cast<double>(n) * static_cast<double>(n));
            evaluations += static_cast<double>(result.iterations);
            benchmark::DoNotOptimize(result.partition.share.data());
        }
    }
    state.counters["evaluations"] = benchmark::Counter(
        evaluations / kSweepSizes, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FpmPartitionHybridSweep)->Arg(6)->Arg(24);

// One iteration rounds the FPM shares of every n of the range on the same
// sets: the floors, the greedy and the makespan.
void BM_RoundPartition(benchmark::State& state) {
    const auto nodes = static_cast<std::uint64_t>(state.range(0)) / 6;
    const auto models = noisy_hybrid_nodes(nodes);
    std::vector<fpm::part::Partition1D> shares;
    for (std::int64_t n = kSweepFirst; n <= kSweepLast; ++n) {
        const double total = static_cast<double>(n) * static_cast<double>(n);
        shares.push_back(fpm::part::partition_fpm(models, total).partition);
    }
    for (auto _ : state) {
        for (std::int64_t n = kSweepFirst; n <= kSweepLast; ++n) {
            const auto& continuous =
                shares[static_cast<std::size_t>(n - kSweepFirst)];
            const auto rounded =
                fpm::part::round_partition(continuous, n * n, models);
            benchmark::DoNotOptimize(rounded.blocks.data());
        }
    }
    state.counters["s_per_plan"] = per_plan();
}
BENCHMARK(BM_RoundPartition)->Arg(6)->Arg(24);

// One iteration plans every n of the range with part::partition and the
// column layout, as a cache miss of the service does.
void BM_PlanHybridSweep(benchmark::State& state,
                        fpm::part::Algorithm algorithm) {
    const auto nodes = static_cast<std::uint64_t>(state.range(0)) / 6;
    const auto models = noisy_hybrid_nodes(nodes);
    for (auto _ : state) {
        for (std::int64_t n = kSweepFirst; n <= kSweepLast; ++n) {
            const auto plan = fpm::part::partition(
                fpm::part::PartitionRequest{models, n, algorithm, true});
            benchmark::DoNotOptimize(plan.blocks.data());
        }
    }
    state.counters["s_per_plan"] = per_plan();
}
BENCHMARK_CAPTURE(BM_PlanHybridSweep, fpm, fpm::part::Algorithm::kFpm)
    ->Arg(6)
    ->Arg(24);
BENCHMARK_CAPTURE(BM_PlanHybridSweep, cpm, fpm::part::Algorithm::kCpm)
    ->Arg(6)
    ->Arg(24);
BENCHMARK_CAPTURE(BM_PlanHybridSweep, even, fpm::part::Algorithm::kEven)
    ->Arg(6)
    ->Arg(24);

void BM_ColumnLayout(benchmark::State& state) {
    const auto devices = static_cast<std::size_t>(state.range(0));
    const std::int64_t n = 70;
    const auto models = synthetic_devices(devices);
    const auto continuous =
        fpm::part::partition_fpm(models, static_cast<double>(n) * n);
    const auto blocks =
        fpm::part::round_partition(continuous.partition, n * n, models);
    for (auto _ : state) {
        const auto layout = fpm::part::column_partition(n, blocks.blocks);
        benchmark::DoNotOptimize(layout.rects.data());
    }
}
BENCHMARK(BM_ColumnLayout)->Arg(2)->Arg(6)->Arg(24);

// A model builds its envelope in SpeedFunction's constructor, so this
// times constructing one 16-knot model.
void BM_MonotoneEnvelope(benchmark::State& state) {
    const auto models = synthetic_devices(1);
    for (auto _ : state) {
        const SpeedFunction model(models[0].points(), models[0].name());
        benchmark::DoNotOptimize(model.points().data());
    }
}
BENCHMARK(BM_MonotoneEnvelope);

} // namespace

BENCHMARK_MAIN();
