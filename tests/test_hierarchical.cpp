// Tests for the two-level (cluster) partitioning extension: the plan is
// the flat plan over every device grouped by node, on the pinned sets,
// the fuzz populations and E1's clusters; conservation across both
// levels, and balance on heterogeneous clusters.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "fpm/app/cluster_app.hpp"
#include "fpm/part/fpm_partitioner.hpp"
#include "fpm/part/hierarchical.hpp"
#include "fpm/part/integer.hpp"
#include "hybrid_sets.hpp"
#include "random_model.hpp"

namespace fpm::part {
namespace {

using core::SpeedFunction;
using Nodes = std::vector<std::vector<SpeedFunction>>;

/// The plan the two-level plan must equal: every device of every node in
/// one partition_fpm() and one round_partition(), the public stages, each
/// building views of its own where partition_hierarchical() shares one
/// view per device between them.
IntPartition1D flat_plan(const Nodes& nodes, std::int64_t total) {
    std::vector<SpeedFunction> flat;
    for (const auto& node : nodes) {
        flat.insert(flat.end(), node.begin(), node.end());
    }
    return round_partition(
        partition_fpm(flat, static_cast<double>(total)).partition, total, flat);
}

/// partition_hierarchical(nodes, total) is flat_plan(nodes, total) grouped
/// by node: the same blocks, node sums and makespan, bit for bit.
::testing::AssertionResult is_flat_plan(const Nodes& nodes,
                                        std::int64_t total) {
    const IntPartition1D flat = flat_plan(nodes, total);
    const HierarchicalResult result = partition_hierarchical(nodes, total);
    if (result.device_blocks.size() != nodes.size() ||
        result.node_blocks.size() != nodes.size()) {
        return ::testing::AssertionFailure() << "one entry per node expected";
    }
    std::size_t device = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const auto& blocks = result.device_blocks[i];
        if (blocks.size() != nodes[i].size()) {
            return ::testing::AssertionFailure()
                   << "node " << i << " holds " << blocks.size() << " devices";
        }
        for (const std::int64_t b : blocks) {
            if (b != flat.blocks[device]) {
                return ::testing::AssertionFailure()
                       << "device " << device << ": " << b << " blocks, flat "
                       << flat.blocks[device];
            }
            ++device;
        }
        const std::int64_t sum =
            std::accumulate(blocks.begin(), blocks.end(), std::int64_t{0});
        if (result.node_blocks[i] != sum) {
            return ::testing::AssertionFailure()
                   << "node " << i << ": " << result.node_blocks[i]
                   << " blocks, its devices hold " << sum;
        }
    }
    if (result.makespan != flat.makespan) {
        return ::testing::AssertionFailure()
               << "makespan " << result.makespan << ", flat " << flat.makespan;
    }
    return ::testing::AssertionSuccess();
}

/// `models` cut into consecutive nodes of `sizes` devices.
Nodes split(const std::vector<SpeedFunction>& models,
            const std::vector<std::size_t>& sizes) {
    Nodes nodes;
    auto first = models.begin();
    for (const std::size_t size : sizes) {
        const auto last = first + static_cast<std::ptrdiff_t>(size);
        nodes.emplace_back(first, last);
        first = last;
    }
    EXPECT_EQ(first, models.end());
    return nodes;
}

TEST(FlatPlan, PinnedSetsSplitIntoNodes) {
    // The 24-device set is four measured hybrid nodes; the 6-device node
    // is cut into two halves.
    const auto sets = testsets::hybrid_sets(11, 100);
    const Nodes six = split(sets[0], {3, 3});
    const Nodes twenty_four = split(sets[1], {6, 6, 6, 6});
    for (const Nodes* nodes : {&six, &twenty_four}) {
        for (std::int64_t n = 16; n <= 150; ++n) {
            EXPECT_TRUE(is_flat_plan(*nodes, n * n))
                << nodes->size() << " nodes, n = " << n;
        }
    }
}

TEST(FlatPlan, PaperNodeSplitIntoTwoNodes) {
    // The node built as the paper benches build it, cut after its second
    // device.
    const Nodes nodes = split(testsets::hybrid_fpms({}, 0.04), {2, 4});
    for (std::int64_t n = 8; n <= 80; ++n) {
        EXPECT_TRUE(is_flat_plan(nodes, n * n)) << "n = " << n;
    }
}

TEST(FlatPlan, FuzzPopulationsSplitAtRandomNodeBoundaries) {
    for (const std::uint64_t seed : {20120924ULL, 777ULL}) {
        Rng rng(seed);
        for (int trial = 0; trial < 60; ++trial) {
            const std::size_t devices =
                1 + static_cast<std::size_t>(rng.uniform_int(0, 7));
            std::vector<SpeedFunction> models;
            double capacity = 0.0;
            std::vector<std::size_t> sizes{1};
            for (std::size_t i = 0; i < devices; ++i) {
                models.push_back(fuzz::random_model(rng, fuzz::device_name(i)));
                capacity += models.back().max_problem();
                if (i > 0) {
                    // Each gap between two devices is a node boundary
                    // with probability one half.
                    if (rng.uniform() < 0.5) {
                        sizes.push_back(1);
                    } else {
                        ++sizes.back();
                    }
                }
            }
            const auto total = static_cast<std::int64_t>(std::min(
                rng.uniform(1.0, 6000.0),
                std::isinf(capacity) ? 6000.0 : 0.95 * capacity));
            EXPECT_TRUE(is_flat_plan(split(models, sizes), total))
                << "seed " << seed << ", trial " << trial;
        }
    }
}

/// Device FPMs of every node of `spec`, built as E1
/// (bench_cluster_scaling) builds them.
Nodes e1_models(const sim::ClusterSpec& spec) {
    sim::HybridCluster cluster(spec, {});
    const auto sets = app::cluster_device_sets(cluster);
    core::FpmBuildOptions options;
    options.x_min = 4.0;
    options.x_max = 5300.0;
    options.initial_points = 12;
    options.max_points = 32;
    options.reliability.min_repetitions = 1;
    options.reliability.max_repetitions = 1;
    return app::cluster_device_fpms(cluster, sets, options);
}

TEST(FlatPlan, E1Clusters) {
    std::vector<std::pair<std::string, Nodes>> clusters;
    for (const std::size_t nodes : {2UL, 4UL, 8UL}) {
        clusters.emplace_back(
            std::to_string(nodes) + " hybrid nodes",
            e1_models(sim::homogeneous_hybrid_cluster(nodes)));
    }
    clusters.emplace_back("heterogeneous",
                          e1_models(sim::heterogeneous_cluster()));
    for (const auto& [name, nodes] : clusters) {
        for (std::int64_t n = 30; n <= 150; ++n) {
            EXPECT_TRUE(is_flat_plan(nodes, n * n)) << name << ", n = " << n;
        }
    }
}

TEST(FlatPlan, NoNodeModelUnbalancesE1sHeterogeneousCluster) {
    // Node models sampled at 24 sizes up to 5,000 blocks, and extrapolated
    // past that, planned this cluster 5.0 % above the flat plan's makespan
    // at n = 140; sampled up to E1's 3,700 blocks, 8.2 % above.
    const Nodes nodes = e1_models(sim::heterogeneous_cluster());
    const std::int64_t total = 140 * 140;
    EXPECT_LE(partition_hierarchical(nodes, total).makespan,
              flat_plan(nodes, total).makespan);
}

TEST(Hierarchical, ConservesTotalsAtBothLevels) {
    const std::vector<std::vector<SpeedFunction>> nodes = {
        {SpeedFunction::constant(10.0, "a0"), SpeedFunction::constant(30.0, "a1")},
        {SpeedFunction::constant(20.0, "b0")},
        {SpeedFunction::constant(5.0, "c0"), SpeedFunction::constant(5.0, "c1"),
         SpeedFunction::constant(5.0, "c2")},
    };
    const std::int64_t total = 4321;
    const auto result = partition_hierarchical(nodes, total);

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
    const auto result = partition_hierarchical(nodes, 1000);
    EXPECT_NEAR(static_cast<double>(result.node_blocks[0]), 800.0, 20.0);
    EXPECT_NEAR(static_cast<double>(result.node_blocks[1]), 200.0, 20.0);
}

TEST(Hierarchical, BalancesHeterogeneousNodeTimes) {
    const std::vector<std::vector<SpeedFunction>> nodes = {
        {SpeedFunction({{10.0, 50.0}, {500.0, 90.0}, {1500.0, 40.0}}, "gpuish")},
        {SpeedFunction::constant(25.0, "cpu0"),
         SpeedFunction::constant(25.0, "cpu1")},
    };
    const auto result = partition_hierarchical(nodes, 2000);
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
    EXPECT_THROW(partition_hierarchical(nodes, 100),
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
    const auto result = part::partition_hierarchical(models, n * n);

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
