#include "fpm/part/hierarchical.hpp"

#include <algorithm>
#include <cmath>

#include "fpm/common/error.hpp"

namespace fpm::part {

core::SpeedFunction aggregate_speed_function(
    std::span<const core::SpeedFunction> devices, const std::string& name,
    const AggregateOptions& options) {
    // The sampling grid: kPoints sizes, geometric from kXMin to x_max.
    constexpr double kXMin = 4.0;
    constexpr std::size_t kPoints = 24;
    FPM_CHECK(!devices.empty(), "need at least one device");
    FPM_CHECK(options.x_max > kXMin, "invalid aggregate range");

    // Combined capacity bounds both the sampling range and the aggregate's
    // own max_problem.
    double capacity = 0.0;
    for (const auto& device : devices) {
        capacity += device.max_problem();
        if (std::isinf(capacity)) {
            capacity = std::numeric_limits<double>::infinity();
            break;
        }
    }
    const double x_max = std::min(options.x_max, capacity);
    FPM_CHECK(x_max > kXMin,
              "node capacity below the aggregate sampling range");

    std::vector<core::SpeedPoint> points;
    points.reserve(kPoints);
    for (std::size_t i = 0; i < kPoints; ++i) {
        const double f =
            static_cast<double>(i) / static_cast<double>(kPoints - 1);
        const double x = kXMin * std::pow(x_max / kXMin, f);
        const auto balanced = partition_fpm(devices, x);
        FPM_CHECK(balanced.balanced_time > 0.0,
                  "degenerate balanced time in aggregate construction");
        points.push_back(core::SpeedPoint{x, x / balanced.balanced_time});
    }
    // Guard against duplicate x from tight geometric grids.
    points.erase(std::unique(points.begin(), points.end(),
                             [](const auto& a, const auto& b) {
                                 return std::fabs(a.x - b.x) < 1e-9;
                             }),
                 points.end());
    return core::SpeedFunction(std::move(points), name, capacity);
}

HierarchicalResult partition_hierarchical(
    const std::vector<std::vector<core::SpeedFunction>>& node_models,
    std::int64_t total, const AggregateOptions& options) {
    FPM_CHECK(!node_models.empty(), "need at least one node");
    FPM_CHECK(total >= 0, "total must be non-negative");

    const std::size_t nodes = node_models.size();

    // Level 1: aggregate per-node models, partition across nodes.
    std::vector<core::SpeedFunction> aggregates;
    aggregates.reserve(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
        FPM_CHECK(!node_models[i].empty(), "node without devices");
        aggregates.push_back(aggregate_speed_function(
            node_models[i], "node" + std::to_string(i), options));
    }
    const auto inter = partition_fpm(aggregates, static_cast<double>(total));
    const auto node_blocks =
        round_partition(inter.partition, total, aggregates);

    // Level 2: partition each node's share across its devices.
    HierarchicalResult result;
    result.node_blocks = node_blocks.blocks;
    result.device_blocks.resize(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
        const std::int64_t share = node_blocks.blocks[i];
        if (share == 0) {
            result.device_blocks[i].assign(node_models[i].size(), 0);
            continue;
        }
        const auto intra =
            partition_fpm(node_models[i], static_cast<double>(share));
        auto rounded = round_partition(intra.partition, share, node_models[i]);
        result.makespan = std::max(result.makespan, rounded.makespan);
        result.device_blocks[i] = std::move(rounded.blocks);
    }
    return result;
}

} // namespace fpm::part
