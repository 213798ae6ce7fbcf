// Extension E1 — hierarchical FPM partitioning on clusters of hybrid
// nodes (the lineage of the paper's ref [6]):
//
//  (a) strong scaling of a fixed problem on 1..8 identical hybrid nodes,
//      with interconnect broadcasts eroding the parallel efficiency;
//  (b) a heterogeneous 3-node cluster (full hybrid + CPU-only + small),
//      where the FPM plan over every device of the cluster beats an even
//      inter-node split.
#include <cstdio>

#include "bench_common.hpp"
#include "fpm/app/cluster_app.hpp"
#include "fpm/part/fpm_partitioner.hpp"
#include "fpm/part/hierarchical.hpp"
#include "fpm/trace/csv.hpp"
#include "fpm/trace/table.hpp"

using namespace fpm;

namespace {

core::FpmBuildOptions model_options() {
    core::FpmBuildOptions options;
    options.x_min = 4.0;
    options.x_max = 5300.0;
    options.initial_points = 12;
    options.max_points = 32;
    options.reliability.min_repetitions = 1;
    options.reliability.max_repetitions = 1;
    return options;
}

} // namespace

int main() {
    std::printf("Extension E1 — hierarchical FPM partitioning on clusters\n\n");

    // ---------------- (a) strong scaling ------------------------------
    std::printf("(a) strong scaling, n = 70 (4900 blocks), identical hybrid "
                "nodes, 10 GbE\n\n");
    trace::Table scaling({"nodes", "exec time (s)", "speedup", "efficiency %",
                          "comm share %"});
    trace::CsvWriter csv("cluster_scaling.csv");
    csv.write_row(std::vector<std::string>{"nodes", "exec_s", "speedup",
                                           "efficiency", "comm_share"});
    const std::int64_t n = 70;
    double t1 = 0.0;
    std::vector<double> times;
    for (const std::size_t node_count : {1UL, 2UL, 4UL, 8UL}) {
        sim::HybridCluster cluster(
            sim::homogeneous_hybrid_cluster(node_count), {});
        auto sets = app::cluster_device_sets(cluster);
        const auto models =
            app::cluster_device_fpms(cluster, sets, model_options());
        const auto partitioned = part::partition_hierarchical(models, n * n);
        const auto result = app::run_simulated_cluster_app(
            cluster, sets, partitioned.device_blocks, n);

        if (node_count == 1) {
            t1 = result.total_time;
        }
        const double speedup = t1 / result.total_time;
        const double efficiency =
            100.0 * speedup / static_cast<double>(node_count);
        const double comm_share =
            100.0 * result.comm_time / result.total_time;
        scaling.row().cell(static_cast<std::int64_t>(node_count))
            .cell(result.total_time, 1).cell(speedup, 2).cell(efficiency, 1)
            .cell(comm_share, 1);
        csv.write_row(std::vector<double>{static_cast<double>(node_count),
                                          result.total_time, speedup,
                                          efficiency, comm_share});
        times.push_back(result.total_time);
    }
    scaling.print();
    std::printf("\n");

    bool ok = true;
    ok &= bench::shape_check("cluster.monotone_speedup",
                             times[1] < times[0] && times[2] < times[1] &&
                                 times[3] < times[2],
                             "more nodes, less time");
    ok &= bench::shape_check("cluster.sublinear_efficiency",
                             times[3] > times[0] / 8.0,
                             "8-node efficiency below 100% (interconnect)");

    // ---------------- (b) heterogeneous cluster -----------------------
    std::printf("(b) heterogeneous 3-node cluster, n = 60\n\n");
    sim::HybridCluster hetero(sim::heterogeneous_cluster(), {});
    auto sets = app::cluster_device_sets(hetero);
    const auto models = app::cluster_device_fpms(hetero, sets, model_options());

    const std::int64_t hn = 60;
    const auto fpm_partitioned = part::partition_hierarchical(models, hn * hn);
    const auto fpm_result = app::run_simulated_cluster_app(
        hetero, sets, fpm_partitioned.device_blocks, hn);

    // Even inter-node split (FPM still used within each node): the
    // traditional approach when node heterogeneity is ignored.
    std::vector<std::vector<std::int64_t>> even_blocks(hetero.node_count());
    std::int64_t remaining = hn * hn;
    for (std::size_t i = 0; i < hetero.node_count(); ++i) {
        const std::int64_t share =
            (i + 1 == hetero.node_count())
                ? remaining
                : hn * hn / static_cast<std::int64_t>(hetero.node_count());
        remaining -= share;
        const auto intra = part::partition_fpm(
            models[i], static_cast<double>(share));
        even_blocks[i] =
            part::round_partition(intra.partition, share, models[i]).blocks;
    }
    const auto even_result =
        app::run_simulated_cluster_app(hetero, sets, even_blocks, hn);

    trace::Table hetero_table({"inter-node algorithm", "node0", "node1",
                               "node2", "exec time (s)"});
    auto node_total = [](const std::vector<std::int64_t>& blocks) {
        std::int64_t sum = 0;
        for (const auto b : blocks) {
            sum += b;
        }
        return sum;
    };
    hetero_table.row().cell("even split")
        .cell(node_total(even_blocks[0])).cell(node_total(even_blocks[1]))
        .cell(node_total(even_blocks[2])).cell(even_result.total_time, 1);
    hetero_table.row().cell("hierarchical FPM")
        .cell(fpm_partitioned.node_blocks[0])
        .cell(fpm_partitioned.node_blocks[1])
        .cell(fpm_partitioned.node_blocks[2])
        .cell(fpm_result.total_time, 1);
    hetero_table.print();
    std::printf("\n");

    ok &= bench::shape_check("cluster.fpm_beats_even_split",
                             fpm_result.total_time < 0.9 * even_result.total_time,
                             fixed(fpm_result.total_time, 1) + " s vs " +
                                 fixed(even_result.total_time, 1) +
                                 " s on the heterogeneous cluster");
    ok &= bench::shape_check("cluster.big_node_gets_most",
                             fpm_partitioned.node_blocks[0] >
                                 fpm_partitioned.node_blocks[1],
                             "full hybrid node outweighs the CPU-only node");
    std::printf("\nraw series written to cluster_scaling.csv\n");
    return ok ? 0 : 1;
}
