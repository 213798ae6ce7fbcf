// Tests for the dynamic task-queue comparator: conservation, adaptation to
// heterogeneity and to time-varying load, and the static/dynamic trade-off
// the paper's related-work section describes.
#include <gtest/gtest.h>

#include <numeric>

#include "fpm/app/dynamic_sched.hpp"
#include "fpm/app/matmul_sim.hpp"
#include "fpm/common/math.hpp"
#include "fpm/part/request.hpp"

namespace fpm::app {
namespace {

class DynamicSchedTest : public ::testing::Test {
protected:
    sim::HybridNode node_{sim::ig_platform(), {}};
};

TEST_F(DynamicSchedTest, AllTasksExecuted) {
    const DeviceSet set = hybrid_devices(node_);
    DynamicOptions options;
    options.granularity = 5;
    const std::int64_t n = 20;
    const auto result = run_dynamic_app(node_, set, n, options);

    const std::int64_t tiles_per_side = ceil_div(n, options.granularity);
    const std::int64_t expected = n * tiles_per_side * tiles_per_side;
    EXPECT_EQ(std::accumulate(result.task_count.begin(),
                              result.task_count.end(), std::int64_t{0}),
              expected);
    EXPECT_GT(result.total_time, 0.0);
}

TEST_F(DynamicSchedTest, FasterDevicesPullMoreTasks) {
    const DeviceSet set = hybrid_devices(node_);
    const auto result = run_dynamic_app(node_, set, 24);

    std::size_t gtx = 0;
    std::size_t s6 = 0;
    for (std::size_t i = 0; i < set.devices.size(); ++i) {
        if (set.devices[i].name == "GeForce GTX680") {
            gtx = i;
        }
        if (set.devices[i].kind == DeviceKind::kCpuSocket &&
            set.devices[i].cores == 6) {
            s6 = i;
        }
    }
    EXPECT_GT(result.task_count[gtx], 2 * result.task_count[s6]);
}

TEST_F(DynamicSchedTest, GranularityTradeOff) {
    // One giant task per iteration serialises the whole node; moderate
    // tiles spread the load; tiny tiles lose kernel efficiency (the
    // small-problem ramp) — the same trade-off as the blocking factor.
    const DeviceSet set = cpu_only_devices(node_);
    const std::int64_t n = 16;
    auto run_with = [&](std::int64_t g) {
        DynamicOptions options;
        options.granularity = g;
        options.charge_migration = false;
        return run_dynamic_app(node_, set, n, options).total_time;
    };
    const double t_serial = run_with(16);   // 1 task/iteration
    const double t_medium = run_with(8);    // 4 tasks over 4 sockets
    const double t_tiny = run_with(1);      // 256 inefficient tasks
    EXPECT_LT(t_medium, 0.5 * t_serial);
    EXPECT_GT(t_tiny, t_medium);
}

TEST_F(DynamicSchedTest, MigrationCostHurts) {
    const DeviceSet set = hybrid_devices(node_);
    DynamicOptions with;
    with.granularity = 2;
    with.charge_migration = true;
    DynamicOptions without = with;
    without.charge_migration = false;
    const auto t_with = run_dynamic_app(node_, set, 16, with).total_time;
    const auto t_without = run_dynamic_app(node_, set, 16, without).total_time;
    EXPECT_GT(t_with, t_without);
}

TEST_F(DynamicSchedTest, StaticPerturbedMatchesSimulatedAppWhenUnperturbed) {
    const DeviceSet set = cpu_only_devices(node_);
    const std::int64_t n = 12;
    const auto layout =
        part::column_partition(n, std::vector<std::int64_t>(4, n * n / 4));
    const double static_time = run_static_app_perturbed(node_, set, layout);
    const double app_time = run_simulated_app(node_, set, layout).compute_time;
    EXPECT_NEAR(static_time, app_time, 1e-9 * app_time);
}

TEST_F(DynamicSchedTest, StaticWinsOnDedicatedPlatform) {
    // No external load: the FPM-partitioned static run beats the dynamic
    // scheduler, which pays migration on every task (the paper's argument
    // for static partitioning on dedicated platforms).
    const DeviceSet set = hybrid_devices(node_);
    const std::int64_t n = 30;

    core::FpmBuildOptions model_options;
    model_options.x_min = 4.0;
    model_options.x_max = 1000.0;
    model_options.reliability.min_repetitions = 1;
    model_options.reliability.max_repetitions = 1;
    sim::HybridNode& node = node_;
    const auto fpms = build_device_fpms(node, set, model_options);
    const auto plan = part::partition({fpms, n, part::Algorithm::kFpm});

    const double static_time = run_static_app_perturbed(node_, set, plan.layout);
    DynamicOptions options;
    options.granularity = 3;
    const double dynamic_time =
        run_dynamic_app(node_, set, n, options).total_time;
    EXPECT_LT(static_time, dynamic_time);
}

TEST_F(DynamicSchedTest, DynamicAdaptsToLoadChange) {
    // A socket loses 70 % of its speed halfway through: the static
    // partition (sized for the unloaded machine) stalls on the straggler;
    // the dynamic queue reroutes tasks.
    const DeviceSet set = cpu_only_devices(node_);
    const std::int64_t n = 24;
    const auto layout =
        part::column_partition(n, std::vector<std::int64_t>(4, n * n / 4));

    const double unperturbed = run_static_app_perturbed(node_, set, layout);
    const SpeedModulation modulation = [&](std::size_t device, double time) {
        return (device == 0 && time > unperturbed / 4.0) ? 0.2 : 1.0;
    };

    const double static_time =
        run_static_app_perturbed(node_, set, layout, modulation);
    DynamicOptions options;
    options.granularity = 6;
    options.charge_migration = true;
    const double dynamic_time =
        run_dynamic_app(node_, set, n, options, modulation).total_time;

    EXPECT_GT(static_time, 1.5 * unperturbed);  // static suffers
    EXPECT_LT(dynamic_time, static_time);       // dynamic adapts
}

TEST_F(DynamicSchedTest, Validation) {
    const DeviceSet set = cpu_only_devices(node_);
    EXPECT_THROW(run_dynamic_app(node_, set, 0), fpm::Error);
    DynamicOptions bad;
    bad.granularity = 0;
    EXPECT_THROW(run_dynamic_app(node_, set, 4, bad), fpm::Error);
    const auto two = part::column_partition(4, std::vector<std::int64_t>{6, 10});
    EXPECT_THROW(run_static_app_perturbed(node_, set, two), fpm::Error);
    // Modulation outside (0, 1] rejected.
    EXPECT_THROW(run_dynamic_app(node_, set, 4, {},
                                 [](std::size_t, double) { return 1.5; }),
                 fpm::Error);
}

} // namespace
} // namespace fpm::app
