/// \file cluster.hpp
/// \brief A cluster of hybrid nodes connected by a network.
///
/// Extends the single-node simulation to the multi-node setting of the
/// authors' earlier work (paper ref [6]): several (possibly different)
/// hybrid nodes exchange pivot rows/columns over an interconnect.  Used
/// by the hierarchical-partitioning extension and its benches.
#pragma once

#include <memory>
#include <vector>

#include "fpm/sim/node.hpp"

namespace fpm::sim {

/// Interconnect between nodes (full bisection assumed).
struct NetworkSpec {
    double bandwidth_gbs = 1.25;  ///< 10 GbE payload rate
    double latency_s = 50e-6;
};

/// The whole cluster.
struct ClusterSpec {
    std::vector<NodeSpec> nodes;
    NetworkSpec network;

    void validate() const;
};

/// N identical copies of the paper's hybrid node.
ClusterSpec homogeneous_hybrid_cluster(std::size_t nodes);

/// A deliberately heterogeneous cluster: one full hybrid node, one
/// CPU-only node (no GPUs), and one under-clocked hybrid node with only
/// the Tesla C870 — the setting where partitioning by FPMs across nodes
/// matters most.
ClusterSpec heterogeneous_cluster();

/// Simulation facade over all nodes of a cluster.
class HybridCluster {
public:
    explicit HybridCluster(ClusterSpec spec, SimOptions options = {});

    [[nodiscard]] const ClusterSpec& spec() const noexcept { return spec_; }
    [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
    [[nodiscard]] HybridNode& node(std::size_t i);
    [[nodiscard]] const HybridNode& node(std::size_t i) const;

    /// Time to broadcast `blocks` blocks to every other node (binomial
    /// tree over the interconnect).
    [[nodiscard]] double broadcast_time(double blocks) const;

private:
    ClusterSpec spec_;
    SimOptions options_;
    std::vector<std::unique_ptr<HybridNode>> nodes_;
};

} // namespace fpm::sim
