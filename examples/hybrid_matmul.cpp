// hybrid_matmul: the paper's application end to end with REAL arithmetic.
//
// Builds a miniature hybrid platform in-process — CPU "sockets" running
// the blocked GEMM on worker threads and "GPUs" emulated by the
// out-of-core executor with a limited device-memory arena — partitions a
// matrix multiplication across them with the FPM algorithm, runs the
// column-based blocked multiplication on a process group, and verifies
// the product against a plain GEMM.
//
// Usage: ./examples/hybrid_matmul [n_blocks] [block_size]
//   defaults: n_blocks=12 block_size=24
#include <cstdio>
#include <cstdlib>

#include "fpm/app/matmul_real.hpp"
#include "fpm/blas/gemm.hpp"
#include "fpm/common/rng.hpp"
#include "fpm/core/speed_function.hpp"
#include "fpm/part/request.hpp"

int main(int argc, char** argv) {
    using namespace fpm;

    const std::int64_t n = argc > 1 ? std::strtol(argv[1], nullptr, 10) : 12;
    const std::size_t b = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 24;
    const std::size_t elems = static_cast<std::size_t>(n) * b;

    std::printf("hybrid matmul: C += A*B, %lld x %lld blocks of %zu x %zu "
                "(matrices %zu x %zu)\n\n",
                static_cast<long long>(n), static_cast<long long>(n), b, b,
                elems, elems);

    // The device set: a fast "GPU" (out-of-core, limited arena), a slow
    // "GPU" and two CPU sockets.  Speed functions here are hand-made to
    // keep the example self-contained; examples/model_builder.cpp shows
    // how to measure them instead.
    std::vector<app::RealDevice> devices(4);
    devices[0] = {1, true, 40.0, sim::KernelVersion::kV3};  // big GPU
    devices[1] = {1, true, 24.0, sim::KernelVersion::kV2};  // small GPU
    devices[2] = {2, false, 0.0, {}};                       // socket, 2 threads
    devices[3] = {1, false, 0.0, {}};                       // socket, 1 thread

    const std::vector<core::SpeedFunction> models = {
        core::SpeedFunction({{4.0, 40.0}, {24.0, 60.0}, {60.0, 25.0}}, "gpu0"),
        core::SpeedFunction({{4.0, 20.0}, {12.0, 28.0}, {40.0, 12.0}}, "gpu1"),
        core::SpeedFunction::constant(16.0, "socket0"),
        core::SpeedFunction::constant(8.0, "socket1"),
    };

    // FPM partition + integer rounding + 2-D layout.
    const auto plan = part::partition({models, n, part::Algorithm::kFpm});

    std::printf("%-9s %7s %12s\n", "device", "blocks", "rectangle");
    for (std::size_t i = 0; i < devices.size(); ++i) {
        std::printf("%-9s %7lld %5lld x %lld\n", models[i].name().c_str(),
                    static_cast<long long>(plan.blocks[i]),
                    static_cast<long long>(plan.layout.rects[i].w),
                    static_cast<long long>(plan.layout.rects[i].h));
    }

    // Random operands; run the real parallel application.
    Rng rng(2012);
    blas::Matrix<float> a(elems, elems);
    blas::Matrix<float> bm(elems, elems);
    for (std::size_t r = 0; r < elems; ++r) {
        for (std::size_t c = 0; c < elems; ++c) {
            a(r, c) = static_cast<float>(rng.uniform(-1.0, 1.0));
            bm(r, c) = static_cast<float>(rng.uniform(-1.0, 1.0));
        }
    }
    blas::Matrix<float> c(elems, elems, 0.0F);
    const auto report = app::run_real_matmul(plan.layout, devices, b, a.view(),
                                             bm.view(), c.view());

    std::printf("\nparallel run: %.3f s wall\n", report.seconds);
    for (std::size_t i = 0; i < devices.size(); ++i) {
        std::printf("  %-9s busy %.3f s", models[i].name().c_str(),
                    report.device_compute_seconds[i]);
        if (devices[i].is_gpu) {
            std::printf("  (C traffic: %.0f blocks up, %.0f down)",
                        report.gpu_traffic[i].upload_c_blocks,
                        report.gpu_traffic[i].download_c_blocks);
        }
        std::printf("\n");
    }

    // Verify against a plain GEMM.
    blas::Matrix<float> expected(elems, elems, 0.0F);
    blas::gemm<float>(a.view(), bm.view(), expected.view());
    const double err = blas::max_abs_diff<float>(c.view(), expected.view());
    std::printf("\nmax |C - C_ref| = %.2e -> %s\n", err,
                err < 1e-2 ? "CORRECT" : "WRONG");
    return err < 1e-2 ? 0 : 1;
}
