/// \file matmul_sim.hpp
/// \brief Simulated execution of the heterogeneous parallel matrix
///        multiplication (paper sections IV and VI).
///
/// Given a device set and the 2-D column layout of the n x n block matrix
/// (part::partition's plan.layout), the simulator reproduces the
/// application's timing structure: n iterations, each of which broadcasts
/// the pivot column/row and then updates every device's rectangle in
/// parallel.  Per-iteration compute time of a device comes from the
/// contention-aware kernel models of fpm::sim; the iteration cost is the
/// maximum over devices plus the communication term.
#pragma once

#include <cstdint>
#include <vector>

#include "fpm/app/device_set.hpp"
#include "fpm/part/column2d.hpp"

namespace fpm::app {

/// Result of a simulated run.
struct SimAppResult {
    double total_time = 0.0;    ///< execution time (compute + comm), seconds
    double compute_time = 0.0;  ///< sum over iterations of max device compute
    double comm_time = 0.0;
    std::vector<double> device_compute_time;  ///< per device, whole run
    std::vector<double> device_iter_time;     ///< per device, one iteration
};

/// Device `device`'s kernel time for one iteration's update of `rect`: a
/// socket's time depends on the rectangle's area, a GPU's on its w x h
/// shape, each under the set's contention.
[[nodiscard]] double rect_time(const sim::HybridNode& node, const DeviceSet& set,
                               std::size_t device, const part::Rect& rect);

/// Simulates the application on `layout`: one rectangle per device of the
/// set, tiling the layout.n x layout.n block matrix.
SimAppResult run_simulated_app(const sim::HybridNode& node, const DeviceSet& set,
                               const part::ColumnLayout& layout);

/// Expands per-device compute times to per-process times in rank order
/// (the paper's Fig. 6 view: one bar per process, sockets contribute one
/// process per core, GPUs their dedicated host process).  Ranks are
/// ordered by socket, with a GPU's host process first on its socket.
std::vector<double> per_process_times(const DeviceSet& set,
                                      const std::vector<double>& device_times);

} // namespace fpm::app
