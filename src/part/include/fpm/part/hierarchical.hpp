/// \file hierarchical.hpp
/// \brief Two-level (inter-node / intra-node) FPM partitioning.
///
/// The paper's intra-node method descends from the authors' earlier work
/// on heterogeneous multicore *clusters* (ref [6]): there, every node is
/// first characterised by a node-level functional performance model and
/// data is partitioned across nodes, then within each node.  This module
/// implements that hierarchy on top of the 1-D FPM partitioner:
///
///  * aggregate_speed_function() composes the devices of one node into a
///    node-level FPM: the node's speed at size x is x divided by the
///    *balanced* execution time of the optimal intra-node partition of x —
///    i.e. the aggregate is itself built by running the partitioner, so
///    non-linearities of the member devices (a GPU's memory cliff)
///    propagate into the node model;
///  * partition_hierarchical() balances a workload across nodes using the
///    aggregates, then across each node's devices.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "fpm/part/fpm_partitioner.hpp"
#include "fpm/part/integer.hpp"

namespace fpm::part {

/// Options of the aggregate-model construction.
struct AggregateOptions {
    /// Largest sampled node size (capped at the node's capacity).
    double x_max = 5000.0;
};

/// Builds the node-level FPM of a device group; see file comment.  The
/// aggregate samples 24 sizes on a geometric grid from 4 blocks to
/// x_max; its max_problem is the sum of the members' capacities.
core::SpeedFunction aggregate_speed_function(
    std::span<const core::SpeedFunction> devices, const std::string& name,
    const AggregateOptions& options = {});

/// Result of the two-level partitioning.
struct HierarchicalResult {
    /// Whole blocks per node (sums to the total).
    std::vector<std::int64_t> node_blocks;
    /// Whole blocks per device within each node (each sums to its node's
    /// share).
    std::vector<std::vector<std::int64_t>> device_blocks;
    /// Predicted makespan of the slowest node: the largest envelope
    /// makespan of any node's device blocks.
    double makespan = 0.0;
};

/// Balances `total` whole blocks across nodes and their devices.
/// `node_models[i]` are the device FPMs of node i.  Throws fpm::Error on
/// empty input or insufficient capacity.
HierarchicalResult partition_hierarchical(
    const std::vector<std::vector<core::SpeedFunction>>& node_models,
    std::int64_t total, const AggregateOptions& options = {});

} // namespace fpm::part
