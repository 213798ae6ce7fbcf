/// \file hierarchical.hpp
/// \brief Two-level (inter-node / intra-node) FPM partitioning.
///
/// The paper's intra-node method descends from the authors' earlier work
/// on heterogeneous multicore *clusters* (ref [6]): data is partitioned
/// across nodes by node-level models, then within each node.  Here the
/// exact two-level plan is the flat plan over every device of the
/// cluster:
///
///  * the balanced time T solves sum over nodes of each node's
///    sum_i x_i(T) = n, and a node's sum is the sum of its devices'
///    linear pieces (core::MonotoneTime::piece), so the two-level solve
///    is the flat solve: the same T, and each node's share is the sum of
///    its devices' shares;
///  * round_partition() on the flat device list gives the least envelope
///    makespan of any integer plan (integer.hpp), so no rounding of node
///    totals first can do better.
///
/// partition_hierarchical() therefore plans the nodes' devices once and
/// groups the blocks by node.
#pragma once

#include <cstdint>
#include <vector>

#include "fpm/core/speed_function.hpp"

namespace fpm::part {

/// Result of the two-level partitioning.
struct HierarchicalResult {
    /// Whole blocks per node (sums to the total).
    std::vector<std::int64_t> node_blocks;
    /// Whole blocks per device within each node (each sums to its node's
    /// share).
    std::vector<std::vector<std::int64_t>> device_blocks;
    /// The flat plan's envelope makespan: the largest envelope time of
    /// any device's blocks.
    double makespan = 0.0;
};

/// Balances `total` whole blocks across nodes and their devices.
/// `node_models[i]` are the device FPMs of node i.  Throws fpm::Error on
/// empty input or insufficient capacity.
HierarchicalResult partition_hierarchical(
    const std::vector<std::vector<core::SpeedFunction>>& node_models,
    std::int64_t total);

} // namespace fpm::part
