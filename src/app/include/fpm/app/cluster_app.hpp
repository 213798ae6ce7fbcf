/// \file cluster_app.hpp
/// \brief Simulated execution of the application on a cluster of hybrid
///        nodes (two-level partitioning extension).
///
/// The blocked matrix multiplication runs exactly as on one node, except
/// that the pivot column/row must also cross the interconnect once per
/// iteration.  Per-iteration cost = max over nodes of the node's device
/// makespan, plus the inter-node broadcast of the pivots.
#pragma once

#include <cstdint>
#include <vector>

#include "fpm/app/device_set.hpp"
#include "fpm/sim/cluster.hpp"

namespace fpm::app {

/// Result of a simulated cluster run.
struct ClusterAppResult {
    double total_time = 0.0;
    double compute_time = 0.0;
    double comm_time = 0.0;                 ///< inter-node broadcasts
    std::vector<double> node_iter_time;     ///< per node, one iteration
};

/// Simulates the application on `cluster`.  `sets[i]` describes node i's
/// devices and `device_blocks[i]` their assigned areas (as
/// part::partition_hierarchical groups the flat plan by node); the grand
/// total must be n*n.
ClusterAppResult run_simulated_cluster_app(
    const sim::HybridCluster& cluster, const std::vector<DeviceSet>& sets,
    const std::vector<std::vector<std::int64_t>>& device_blocks,
    std::int64_t n);

/// Device sets of every node of a cluster (hybrid configuration per node).
std::vector<DeviceSet> cluster_device_sets(
    sim::HybridCluster& cluster,
    sim::KernelVersion version = sim::KernelVersion::kV3);

/// Device FPMs of every node (contention-aware, as on the single node).
std::vector<std::vector<core::SpeedFunction>> cluster_device_fpms(
    sim::HybridCluster& cluster, const std::vector<DeviceSet>& sets,
    const core::FpmBuildOptions& options);

} // namespace fpm::app
