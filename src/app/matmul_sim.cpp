#include "fpm/app/matmul_sim.hpp"

#include <algorithm>
#include <cmath>

#include "fpm/sim/specs.hpp"

namespace fpm::app {

double rect_time(const sim::HybridNode& node, const DeviceSet& set,
                 std::size_t device, const part::Rect& rect) {
    const Device& d = set.devices[device];
    if (d.kind == DeviceKind::kCpuSocket) {
        return node.cpu_kernel_time(d.socket, d.cores,
                                    static_cast<double>(rect.area()),
                                    set.gpu_on_socket(d.socket));
    }
    const double factor = node.gpu_contention_factor(
        d.gpu_index, set.cpu_cores_on_socket(d.socket));
    return node.gpu_sim(d.gpu_index)
        .time_invocation(rect.w, rect.h, d.gpu_version, factor)
        .total_s;
}

SimAppResult run_simulated_app(const sim::HybridNode& node, const DeviceSet& set,
                               const part::ColumnLayout& layout) {
    FPM_CHECK(layout.rects.size() == set.devices.size(),
              "layout must match the device set");
    const std::int64_t n = layout.n;
    FPM_CHECK(n >= 1, "matrix size must be positive");

    SimAppResult result;
    const std::size_t p = set.devices.size();
    result.device_iter_time.assign(p, 0.0);
    result.device_compute_time.assign(p, 0.0);

    // Per-iteration compute time of each device; rectangles are fixed
    // across iterations so one evaluation suffices.  The serpentine
    // (reversed) iterations of the out-of-core kernel have identical
    // transfer counts, so their time matches the forward ones.
    for (std::size_t i = 0; i < p; ++i) {
        const part::Rect& rect = layout.rects[i];
        if (rect.area() > 0) {
            result.device_iter_time[i] = rect_time(node, set, i, rect);
        }
    }

    const double iter_compute =
        result.device_iter_time.empty()
            ? 0.0
            : *std::max_element(result.device_iter_time.begin(),
                                result.device_iter_time.end());

    // Communication: at each iteration every device receives the parts of
    // the pivot column (its h rows) and pivot row (its w columns) it does
    // not own.  The broadcast is a memcpy-speed tree of depth ~log2(P)
    // over the node's processes.
    double iter_comm = 0.0;
    if (p > 1) {
        const double bb = sim::block_bytes(node.options().block_size,
                                           node.options().precision);
        const double procs = static_cast<double>(set.process_count());
        const double depth = std::max(1.0, std::ceil(std::log2(procs)));
        double worst_bytes = 0.0;
        for (std::size_t i = 0; i < p; ++i) {
            const part::Rect& rect = layout.rects[i];
            if (rect.area() == 0) {
                continue;
            }
            worst_bytes = std::max(
                worst_bytes, static_cast<double>(rect.h + rect.w) * bb);
        }
        iter_comm = depth * node.spec().message_latency_s +
                    worst_bytes / (node.spec().host_copy_gbs * 1e9);
    }

    for (std::size_t i = 0; i < p; ++i) {
        result.device_compute_time[i] =
            result.device_iter_time[i] * static_cast<double>(n);
    }
    result.compute_time = iter_compute * static_cast<double>(n);
    result.comm_time = iter_comm * static_cast<double>(n);
    result.total_time = result.compute_time + result.comm_time;
    return result;
}

std::vector<double> per_process_times(const DeviceSet& set,
                                      const std::vector<double>& device_times) {
    FPM_CHECK(device_times.size() == set.devices.size(),
              "device_times must match the device set");

    // Rank order: sockets ascending; within a socket, GPU host processes
    // first (the paper binds rank 0 to the C870 host core on socket 0 and
    // rank 6 to the GTX680 host core on socket 1), then the compute cores.
    std::vector<double> times;
    std::size_t max_socket = 0;
    for (const auto& device : set.devices) {
        max_socket = std::max(max_socket, device.socket);
    }
    for (std::size_t s = 0; s <= max_socket; ++s) {
        for (std::size_t i = 0; i < set.devices.size(); ++i) {
            const Device& device = set.devices[i];
            if (device.socket != s || device.kind != DeviceKind::kGpu) {
                continue;
            }
            times.push_back(device_times[i]);
        }
        for (std::size_t i = 0; i < set.devices.size(); ++i) {
            const Device& device = set.devices[i];
            if (device.socket != s || device.kind != DeviceKind::kCpuSocket) {
                continue;
            }
            // All cores of a socket process equal shares of the socket's
            // rectangle and finish together.
            for (unsigned c = 0; c < device.cores; ++c) {
                times.push_back(device_times[i]);
            }
        }
    }
    return times;
}

} // namespace fpm::app
