// cluster_partition: two-level FPM partitioning across a heterogeneous
// cluster of hybrid nodes.
//
// Builds the device FPMs of every node of a 3-node heterogeneous cluster
// (full hybrid, CPU-only, small), balances a matrix across every device
// of the cluster at once (the exact two-level plan), and prints the
// resulting distribution by node with per-node completion times.
//
// Usage: ./examples/cluster_partition [n_blocks]   (default 60)
#include <cstdio>
#include <cstdlib>

#include "fpm/app/cluster_app.hpp"
#include "fpm/part/hierarchical.hpp"
#include "fpm/trace/table.hpp"

int main(int argc, char** argv) {
    using namespace fpm;

    const std::int64_t n = argc > 1 ? std::strtol(argv[1], nullptr, 10) : 60;

    sim::HybridCluster cluster(sim::heterogeneous_cluster(), {});
    std::printf("heterogeneous cluster of %zu nodes:\n", cluster.node_count());
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
        const auto& spec = cluster.node(i).spec();
        std::printf("  %-8s %zu socket(s), %zu GPU(s)\n", spec.hostname.c_str(),
                    spec.sockets.size(), spec.gpus.size());
    }

    auto sets = app::cluster_device_sets(cluster);

    core::FpmBuildOptions model_options;
    model_options.x_min = 4.0;
    model_options.x_max = static_cast<double>(n) * static_cast<double>(n) + 64.0;
    model_options.reliability.min_repetitions = 1;
    model_options.reliability.max_repetitions = 1;
    const auto models = app::cluster_device_fpms(cluster, sets, model_options);

    const auto partitioned = part::partition_hierarchical(models, n * n);
    const auto result = app::run_simulated_cluster_app(
        cluster, sets, partitioned.device_blocks, n);

    std::printf("\ntwo-level distribution of %lld x %lld blocks:\n\n",
                static_cast<long long>(n), static_cast<long long>(n));
    trace::Table table({"node", "device", "blocks", "share %"});
    const double total = static_cast<double>(n) * static_cast<double>(n);
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
        table.row()
            .cell(cluster.node(i).spec().hostname)
            .cell("(whole node)")
            .cell(partitioned.node_blocks[i])
            .cell(100.0 * static_cast<double>(partitioned.node_blocks[i]) / total,
                  1);
        for (std::size_t d = 0; d < sets[i].devices.size(); ++d) {
            table.row()
                .cell("")
                .cell(sets[i].devices[d].name)
                .cell(partitioned.device_blocks[i][d])
                .cell(100.0 *
                          static_cast<double>(partitioned.device_blocks[i][d]) /
                          total,
                      1);
        }
    }
    table.print();

    std::printf("\nper-iteration node times: ");
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
        std::printf("%s%.3f s", i ? ", " : "", result.node_iter_time[i]);
    }
    std::printf("\npredicted execution: %.1f s total (%.1f s compute, %.1f s "
                "inter-node communication)\n",
                result.total_time, result.compute_time, result.comm_time);
    return 0;
}
