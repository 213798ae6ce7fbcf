// Tests for the two-level (cluster) partitioning extension: aggregate
// node models, conservation across both levels, and balance on
// heterogeneous clusters.
#include <gtest/gtest.h>

#include <numeric>

#include "fpm/app/cluster_app.hpp"
#include "fpm/part/hierarchical.hpp"

namespace fpm::part {
namespace {

using core::SpeedFunction;

AggregateOptions quick_options(double x_max = 2000.0) {
    AggregateOptions options;
    options.x_max = x_max;
    return options;
}

TEST(Aggregate, SingleDeviceAggregateMatchesDevice) {
    const std::vector<SpeedFunction> devices = {
        SpeedFunction({{10.0, 8.0}, {100.0, 20.0}, {1000.0, 18.0}}, "dev"),
    };
    const auto aggregate =
        aggregate_speed_function(devices, "node", quick_options());
    for (double x : {10.0, 50.0, 400.0, 1500.0}) {
        EXPECT_NEAR(aggregate.speed(x), devices[0].speed(x),
                    0.08 * devices[0].speed(x))
            << x;
    }
}

TEST(Aggregate, ConstantDevicesSumExactly) {
    const std::vector<SpeedFunction> devices = {
        SpeedFunction::constant(10.0, "a"),
        SpeedFunction::constant(30.0, "b"),
    };
    const auto aggregate =
        aggregate_speed_function(devices, "node", quick_options());
    for (double x : {10.0, 100.0, 1000.0}) {
        EXPECT_NEAR(aggregate.speed(x), 40.0, 0.5) << x;
    }
}

TEST(Aggregate, CapacityIsSumOfMembers) {
    const std::vector<SpeedFunction> devices = {
        SpeedFunction({{10.0, 8.0}}, "gpu", 100.0),
        SpeedFunction({{10.0, 4.0}}, "cpu", 50.0),
    };
    const auto aggregate =
        aggregate_speed_function(devices, "node", quick_options(140.0));
    EXPECT_DOUBLE_EQ(aggregate.max_problem(), 150.0);
}

TEST(Aggregate, GpuCliffPropagatesIntoNodeModel) {
    // A node with a cliff-GPU: the node-level speed must also fall once
    // the GPU saturates (at its balanced share, not the total).
    std::vector<core::SpeedPoint> gpu_points;
    for (double x = 10.0; x <= 2000.0; x += 50.0) {
        gpu_points.push_back({x, x < 500.0 ? 100.0 : 25.0});
    }
    const std::vector<SpeedFunction> devices = {
        SpeedFunction(gpu_points, "gpu"),
        SpeedFunction::constant(20.0, "cpu"),
    };
    const auto aggregate =
        aggregate_speed_function(devices, "node", quick_options());
    EXPECT_GT(aggregate.speed(300.0), 1.5 * aggregate.speed(1900.0));
}

TEST(Hierarchical, ConservesTotalsAtBothLevels) {
    const std::vector<std::vector<SpeedFunction>> nodes = {
        {SpeedFunction::constant(10.0, "a0"), SpeedFunction::constant(30.0, "a1")},
        {SpeedFunction::constant(20.0, "b0")},
        {SpeedFunction::constant(5.0, "c0"), SpeedFunction::constant(5.0, "c1"),
         SpeedFunction::constant(5.0, "c2")},
    };
    const std::int64_t total = 4321;
    const auto result = partition_hierarchical(nodes, total, quick_options());

    EXPECT_EQ(std::accumulate(result.node_blocks.begin(),
                              result.node_blocks.end(), std::int64_t{0}),
              total);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        EXPECT_EQ(std::accumulate(result.device_blocks[i].begin(),
                                  result.device_blocks[i].end(),
                                  std::int64_t{0}),
                  result.node_blocks[i])
            << "node " << i;
    }
}

TEST(Hierarchical, ProportionalForConstantNodes) {
    const std::vector<std::vector<SpeedFunction>> nodes = {
        {SpeedFunction::constant(40.0, "fast")},
        {SpeedFunction::constant(10.0, "slow")},
    };
    const auto result = partition_hierarchical(nodes, 1000, quick_options());
    EXPECT_NEAR(static_cast<double>(result.node_blocks[0]), 800.0, 20.0);
    EXPECT_NEAR(static_cast<double>(result.node_blocks[1]), 200.0, 20.0);
}

TEST(Hierarchical, BalancesHeterogeneousNodeTimes) {
    const std::vector<std::vector<SpeedFunction>> nodes = {
        {SpeedFunction({{10.0, 50.0}, {500.0, 90.0}, {1500.0, 40.0}}, "gpuish")},
        {SpeedFunction::constant(25.0, "cpu0"),
         SpeedFunction::constant(25.0, "cpu1")},
    };
    const auto result = partition_hierarchical(nodes, 2000, quick_options(2200.0));
    // Per-node completion times within 15 % of each other.
    double t0 = 0.0;
    double t1 = 0.0;
    t0 = nodes[0][0].time(static_cast<double>(result.device_blocks[0][0]));
    for (std::size_t d = 0; d < 2; ++d) {
        t1 = std::max(t1, nodes[1][d].time(static_cast<double>(
                              result.device_blocks[1][d])));
    }
    EXPECT_NEAR(t0, t1, 0.15 * std::max(t0, t1));
    EXPECT_NEAR(result.makespan, std::max(t0, t1), 1e-9);
}

TEST(Hierarchical, Validation) {
    EXPECT_THROW(partition_hierarchical({}, 100), fpm::Error);
    EXPECT_THROW(partition_hierarchical({{}}, 100), fpm::Error);
    const std::vector<std::vector<SpeedFunction>> nodes = {
        {SpeedFunction({{10.0, 1.0}}, "tiny", 50.0)},
    };
    EXPECT_THROW(partition_hierarchical(nodes, 100, quick_options(45.0)),
                 fpm::Error);
}

} // namespace
} // namespace fpm::part

namespace fpm::app {
namespace {

TEST(ClusterSim, SpecsAndValidation) {
    const auto homogeneous = sim::homogeneous_hybrid_cluster(4);
    EXPECT_EQ(homogeneous.nodes.size(), 4U);
    EXPECT_NO_THROW(homogeneous.validate());

    const auto heterogeneous = sim::heterogeneous_cluster();
    EXPECT_EQ(heterogeneous.nodes.size(), 3U);
    EXPECT_TRUE(heterogeneous.nodes[1].gpus.empty());
    EXPECT_EQ(heterogeneous.nodes[2].gpus.size(), 1U);
    EXPECT_NO_THROW(heterogeneous.validate());

    EXPECT_THROW(sim::homogeneous_hybrid_cluster(0), fpm::Error);
}

TEST(ClusterSim, BroadcastTimeScalesWithNodesAndBytes) {
    sim::HybridCluster two(sim::homogeneous_hybrid_cluster(2), {});
    sim::HybridCluster eight(sim::homogeneous_hybrid_cluster(8), {});
    EXPECT_GT(eight.broadcast_time(100.0), two.broadcast_time(100.0));
    EXPECT_GT(two.broadcast_time(200.0), two.broadcast_time(100.0));
    sim::HybridCluster one(sim::homogeneous_hybrid_cluster(1), {});
    EXPECT_DOUBLE_EQ(one.broadcast_time(100.0), 0.0);
}

TEST(ClusterSim, HierarchicalEndToEndOnHeterogeneousCluster) {
    sim::HybridCluster cluster(sim::heterogeneous_cluster(), {});
    auto sets = cluster_device_sets(cluster);

    core::FpmBuildOptions options;
    options.x_min = 4.0;
    options.x_max = 2600.0;
    options.initial_points = 10;
    options.max_points = 24;
    options.reliability.min_repetitions = 1;
    options.reliability.max_repetitions = 1;
    const auto models = cluster_device_fpms(cluster, sets, options);

    const std::int64_t n = 48;
    part::AggregateOptions agg;
    agg.x_max = 2500.0;
    const auto result =
        part::partition_hierarchical(models, n * n, agg);

    const auto app = run_simulated_cluster_app(cluster, sets,
                                               result.device_blocks, n);
    EXPECT_GT(app.total_time, 0.0);
    EXPECT_GT(app.comm_time, 0.0);

    // The full hybrid node must receive the largest share; all nodes
    // finish within a reasonable band of each other.
    EXPECT_GT(result.node_blocks[0], result.node_blocks[1]);
    EXPECT_GT(result.node_blocks[0], result.node_blocks[2]);
    const double worst = *std::max_element(app.node_iter_time.begin(),
                                           app.node_iter_time.end());
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
        EXPECT_GT(app.node_iter_time[i], 0.5 * worst) << "node " << i;
    }
}

TEST(ClusterSim, AppValidation) {
    sim::HybridCluster cluster(sim::homogeneous_hybrid_cluster(2), {});
    auto sets = cluster_device_sets(cluster);
    std::vector<std::vector<std::int64_t>> blocks(2);
    blocks[0].assign(sets[0].devices.size(), 0);
    blocks[1].assign(sets[1].devices.size(), 0);
    blocks[0][0] = 10;  // grand total 10 != n*n
    EXPECT_THROW(run_simulated_cluster_app(cluster, sets, blocks, 4),
                 fpm::Error);
}

} // namespace
} // namespace fpm::app
