/// \file dynamic_sched.hpp
/// \brief Dynamic (task-queue) load balancing comparator.
///
/// The paper's related-work section contrasts static data partitioning
/// with dynamic algorithms (task scheduling / work stealing, refs [8],
/// [11], [12]): dynamic schedulers need no a-priori models and adapt when
/// the load changes, but pay per-task migration overhead and lose data
/// locality; on dedicated platforms static partitioning is near-optimal.
///
/// This module makes that trade-off measurable on the simulated node: a
/// greedy centralised task queue distributes g x g-block tile updates per
/// application iteration; every task pays a fetch cost (its operands move
/// to whichever device grabbed it — dynamic schedulers cannot pre-place
/// data).  A time-varying speed modulation models a non-dedicated
/// platform; the static runner accepts the same modulation so the two
/// strategies face identical conditions.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fpm/app/device_set.hpp"
#include "fpm/part/column2d.hpp"

namespace fpm::app {

/// External load on a device: rate multiplier (0, 1] as a function of
/// wall-clock time.  Identity when empty.
using SpeedModulation = std::function<double(std::size_t device, double time)>;

/// Options of the dynamic scheduler.
struct DynamicOptions {
    /// Side of a task tile, in blocks: tasks are g x g block updates.
    std::int64_t granularity = 4;
    /// Whether a task's operands must be fetched to the executing device
    /// each time (the data-migration cost dynamic scheduling incurs).
    bool charge_migration = true;
};

/// Result of a (simulated) dynamic run.
struct DynamicResult {
    double total_time = 0.0;
    std::vector<double> device_busy;       ///< per device, whole run
    std::vector<std::int64_t> task_count;  ///< tasks executed per device
};

/// Simulates the application with per-iteration greedy task-queue
/// scheduling over the device set.
DynamicResult run_dynamic_app(const sim::HybridNode& node, const DeviceSet& set,
                              std::int64_t n, const DynamicOptions& options = {},
                              const SpeedModulation& modulation = {});

/// Simulates the statically partitioned application (fixed per-device
/// rectangles of `layout`) under the same time-varying modulation, for
/// apples-to-apples comparison with run_dynamic_app.  With an empty
/// modulation this agrees with run_simulated_app's compute time.
double run_static_app_perturbed(const sim::HybridNode& node, const DeviceSet& set,
                                const part::ColumnLayout& layout,
                                const SpeedModulation& modulation = {});

} // namespace fpm::app
