/// \file partition.hpp
/// \brief 1-D data-partition types and the simple partitioners.
///
/// A 1-D partition distributes a total computational workload (matrix
/// area, in blocks) over p devices.  The paper evaluates three families:
///
///  - homogeneous: equal shares (the baseline of Fig. 7);
///  - CPM-based:  shares proportional to constant speeds (refs [1], [2]);
///  - FPM-based:  shares solving x_i / s_i(x_i) = const (refs [5], [6]),
///    implemented in fpm_partitioner.hpp.
#pragma once

#include <span>
#include <vector>

#include "fpm/core/speed_function.hpp"

namespace fpm::part {

/// Continuous 1-D partition: share[i] is the area given to device i.
struct Partition1D {
    std::vector<double> share;

    [[nodiscard]] double total() const;
};

/// Equal distribution of `total` over `devices`.
Partition1D partition_homogeneous(std::size_t devices, double total);

/// Distribution proportional to constant speeds.  Devices with zero speed
/// receive nothing; throws if every speed is zero or any is negative.
Partition1D partition_cpm(std::span<const double> speeds, double total);

/// Parallel completion time of a distribution under the given speed
/// functions: max_i t_i(x_i), with t_i each model's monotone time envelope
/// (core::MonotoneTime), the time the FPM solve balances and integer
/// rounding minimises.  Devices with x_i == 0 cost nothing.
double makespan(std::span<const core::SpeedFunction> models,
                std::span<const double> shares);
double makespan(std::span<const core::SpeedFunction> models,
                std::span<const std::int64_t> shares);

} // namespace fpm::part
