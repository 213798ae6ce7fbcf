/// \file fpm_partitioner.hpp
/// \brief FPM-based geometric data-partitioning (Lastovetsky & Reddy).
///
/// Given speed functions s_1..s_p and a total workload n, the algorithm
/// finds shares x_1..x_p with sum x_i = n such that all devices finish
/// simultaneously: x_i / s_i(x_i) = T for every device with x_i > 0.
/// Geometrically, the solution points (x_i, s_i(x_i)) lie on one straight
/// line through the origin, and T (equivalently, the slope of that line)
/// is where the total assigned work sum_i x_i(T) reaches n.  Each device's
/// monotone execution-time envelope makes x_i(T) non-decreasing and linear
/// between its grid samples, so that sum is piecewise linear and T is
/// solved for exactly: a safeguarded Newton iteration over the linear
/// pieces (core::MonotoneTime::piece), first on the segment ends each model
/// stores, then on the full grid.  Each model builds its envelope once,
/// when it is constructed; a call only reads it, through one
/// core::MonotoneTime view per device.  partition_fpm() builds those
/// views itself; part::partition() and partition_hierarchical() build
/// them once per plan and hand the same views on to the rounding.
///
/// Devices with a finite maximum problem size (a GPU without out-of-core
/// support) simply saturate at that maximum; the algorithm remains correct
/// as long as the total capacity covers n, and throws otherwise.
#pragma once

#include <span>

#include "fpm/part/partition.hpp"

namespace fpm::part {

/// Result of the continuous FPM partitioning.
struct FpmPartitionResult {
    Partition1D partition;
    double balanced_time = 0.0;  ///< the equalised execution time T
    std::size_t iterations = 0;  ///< evaluations of sum_i x_i(T), both stages
};

/// Computes the balanced continuous partition.  Throws fpm::Error when the
/// combined capacity of all devices cannot hold `total`.
FpmPartitionResult partition_fpm(std::span<const core::SpeedFunction> models,
                                 double total);

} // namespace fpm::part
