// Reproduces Table III: the block counts the CPM- and FPM-based
// partitioning algorithms assign to each device of the hybrid node
// (G1 = GeForce GTX680, G2 = Tesla C870, S5 = sockets with a dedicated
// core, S6 = full sockets) for n in {40, 50, 60, 70}.
//
// Shape criteria (paper): the CPM keeps the GTX680-to-S6 ratio near the
// in-core speed ratio (~8x at n = 70, an overload); the FPM ratio falls
// to the out-of-core ratio (~4-6x), and the FPM assignment never exceeds
// what the GPU can digest in balanced time.
#include <cstdio>

#include "bench_common.hpp"
#include "fpm/trace/csv.hpp"
#include "fpm/trace/table.hpp"

using namespace fpm;

int main() {
    sim::HybridNode node(sim::ig_platform(), {});
    bench::print_platform(node);
    std::printf("Table III — heterogeneous data partitioning on the hybrid node\n\n");

    bench::HybridPipeline pipeline(node);
    const auto& set = pipeline.set();

    const std::size_t g1 = bench::find_device(
        set, [](const app::Device& d) { return d.name == "GeForce GTX680"; });
    const std::size_t g2 = bench::find_device(
        set, [](const app::Device& d) { return d.name == "Tesla C870"; });
    const std::size_t s5 = bench::find_device(set, [](const app::Device& d) {
        return d.kind == app::DeviceKind::kCpuSocket && d.cores == 5;
    });
    const std::size_t s6 = bench::find_device(set, [](const app::Device& d) {
        return d.kind == app::DeviceKind::kCpuSocket && d.cores == 6;
    });

    trace::Table table({"Matrix (blks)", "CPM G1", "CPM G2", "CPM S5", "CPM S6",
                        "FPM G1", "FPM G2", "FPM S5", "FPM S6"});
    trace::CsvWriter csv("table3_partitions.csv");
    csv.write_row(std::vector<std::string>{"n", "cpm_g1", "cpm_g2", "cpm_s5",
                                           "cpm_s6", "fpm_g1", "fpm_g2",
                                           "fpm_s5", "fpm_s6"});

    double ratios[4][2] = {};
    std::int64_t fpm_g1_blocks[4] = {};
    for (std::size_t r = 0; r < 4; ++r) {
        const std::int64_t n = 40 + 10 * static_cast<std::int64_t>(r);
        const auto cpm = pipeline.plan(part::Algorithm::kCpm, n).blocks;
        const auto fpm = pipeline.plan(part::Algorithm::kFpm, n).blocks;
        table.row()
            .cell(std::to_string(n) + " x " + std::to_string(n))
            .cell(cpm[g1]).cell(cpm[g2]).cell(cpm[s5]).cell(cpm[s6])
            .cell(fpm[g1]).cell(fpm[g2]).cell(fpm[s5]).cell(fpm[s6]);
        csv.write_row(std::vector<double>{
            static_cast<double>(n), static_cast<double>(cpm[g1]),
            static_cast<double>(cpm[g2]), static_cast<double>(cpm[s5]),
            static_cast<double>(cpm[s6]), static_cast<double>(fpm[g1]),
            static_cast<double>(fpm[g2]), static_cast<double>(fpm[s5]),
            static_cast<double>(fpm[s6])});
        ratios[r][0] = static_cast<double>(cpm[g1]) / static_cast<double>(cpm[s6]);
        ratios[r][1] = static_cast<double>(fpm[g1]) / static_cast<double>(fpm[s6]);
        fpm_g1_blocks[r] = fpm[g1];
    }
    table.print();
    std::printf("\npaper reference (FPM row, n=70): G1=2250 G2=806 S5=425 S6=504\n\n");

    bool ok = true;
    ok &= bench::shape_check("table3.cpm_overloads_gpu", ratios[3][0] > 7.0,
                             "CPM G1/S6 = " + fixed(ratios[3][0], 1) +
                                 " at n=70 (paper ~8)");
    ok &= bench::shape_check("table3.fpm_backs_off", ratios[3][1] < 6.5,
                             "FPM G1/S6 = " + fixed(ratios[3][1], 1) +
                                 " at n=70 (paper ~4.5)");
    ok &= bench::shape_check("table3.ratio_gap",
                             ratios[3][0] > 1.3 * ratios[3][1],
                             "CPM ratio exceeds FPM ratio by >30% at n=70");
    // The FPM's G1 share grows with n but sub-linearly in n^2 once the
    // memory cliff is passed.
    const double growth = static_cast<double>(fpm_g1_blocks[3]) /
                          static_cast<double>(fpm_g1_blocks[0]);
    ok &= bench::shape_check("table3.fpm_sublinear_growth",
                             growth < (4900.0 / 1600.0),
                             "G1 blocks grow " + fixed(growth, 2) +
                                 "x from n=40 to n=70 (< 3.06x area growth)");
    std::printf("\nraw series written to table3_partitions.csv\n");
    return ok ? 0 : 1;
}
