#include "fpm/app/dynamic_sched.hpp"

#include <algorithm>
#include <cmath>

#include "fpm/app/matmul_sim.hpp"
#include "fpm/common/math.hpp"

namespace fpm::app {

namespace {

/// Time for `device` to execute one task of `area` blocks starting at
/// wall-clock `now` (kernel time, optional operand fetch, external load).
double task_time(const sim::HybridNode& node, const DeviceSet& set,
                 std::size_t device, double area, std::int64_t side,
                 double now, const DynamicOptions& options,
                 const SpeedModulation& modulation) {
    const Device& d = set.devices[device];
    double t = 0.0;
    if (d.kind == DeviceKind::kCpuSocket) {
        t = node.cpu_kernel_time(d.socket, d.cores, area,
                                 set.gpu_on_socket(d.socket));
    } else {
        const double factor = node.gpu_contention_factor(
            d.gpu_index, set.cpu_cores_on_socket(d.socket));
        t = node.gpu_sim(d.gpu_index)
                .time_invocation(side, side, d.gpu_version, factor)
                .total_s;
    }
    if (options.charge_migration) {
        // The task's C tile plus its pivot slices move to the device that
        // grabbed it: (area + 2*side) blocks through host memory.
        const double bytes =
            (area + 2.0 * static_cast<double>(side)) *
            sim::block_bytes(node.options().block_size, node.options().precision);
        t += node.spec().message_latency_s +
             bytes / (node.spec().host_copy_gbs * 1e9);
    }
    if (modulation) {
        const double m = modulation(device, now);
        FPM_CHECK(m > 0.0 && m <= 1.0, "modulation must be in (0, 1]");
        t /= m;
    }
    return t;
}

} // namespace

DynamicResult run_dynamic_app(const sim::HybridNode& node, const DeviceSet& set,
                              std::int64_t n, const DynamicOptions& options,
                              const SpeedModulation& modulation) {
    FPM_CHECK(n >= 1, "matrix size must be positive");
    FPM_CHECK(options.granularity >= 1, "granularity must be positive");
    FPM_CHECK(!set.devices.empty(), "need at least one device");

    const std::size_t p = set.devices.size();
    const std::int64_t g = std::min(options.granularity, n);
    const std::int64_t tiles_per_side = ceil_div(n, g);

    DynamicResult result;
    result.device_busy.assign(p, 0.0);
    result.task_count.assign(p, 0);

    // Device availability persists across iterations (the queue refills
    // each iteration; a straggling device simply keeps its backlog).
    std::vector<double> free_at(p, 0.0);

    for (std::int64_t iteration = 0; iteration < n; ++iteration) {
        // One task per C tile this iteration.  Greedy list scheduling:
        // every task goes to the device that finishes it earliest.
        for (std::int64_t tr = 0; tr < tiles_per_side; ++tr) {
            for (std::int64_t tc = 0; tc < tiles_per_side; ++tc) {
                const std::int64_t h = std::min(g, n - tr * g);
                const std::int64_t w = std::min(g, n - tc * g);
                const double area = static_cast<double>(h * w);

                std::size_t best = 0;
                double best_done = std::numeric_limits<double>::infinity();
                double best_cost = 0.0;
                for (std::size_t device = 0; device < p; ++device) {
                    const double cost =
                        task_time(node, set, device, area, std::max(w, h),
                                  free_at[device], options, modulation);
                    const double done = free_at[device] + cost;
                    if (done < best_done) {
                        best_done = done;
                        best = device;
                        best_cost = cost;
                    }
                }
                free_at[best] = best_done;
                result.device_busy[best] += best_cost;
                result.task_count[best] += 1;
            }
        }
        // Iteration barrier: the next pivot needs every tile updated.
        const double barrier =
            *std::max_element(free_at.begin(), free_at.end());
        free_at.assign(p, barrier);
    }

    result.total_time = *std::max_element(free_at.begin(), free_at.end());
    return result;
}

double run_static_app_perturbed(const sim::HybridNode& node, const DeviceSet& set,
                                const part::ColumnLayout& layout,
                                const SpeedModulation& modulation) {
    FPM_CHECK(layout.rects.size() == set.devices.size(),
              "layout must match the device set");
    FPM_CHECK(layout.n >= 1, "matrix size must be positive");

    double now = 0.0;
    for (std::int64_t iteration = 0; iteration < layout.n; ++iteration) {
        double iter_time = 0.0;
        for (std::size_t i = 0; i < set.devices.size(); ++i) {
            const part::Rect& rect = layout.rects[i];
            if (rect.area() == 0) {
                continue;
            }
            double t = rect_time(node, set, i, rect);
            if (modulation) {
                const double m = modulation(i, now);
                FPM_CHECK(m > 0.0 && m <= 1.0, "modulation must be in (0, 1]");
                t /= m;
            }
            iter_time = std::max(iter_time, t);
        }
        now += iter_time;
    }
    return now;
}

} // namespace fpm::app
