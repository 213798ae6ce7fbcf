/// \file integer.hpp
/// \brief Integer rounding of continuous partitions.
///
/// The application distributes whole b-by-b blocks, so the continuous
/// shares of the partitioners must be rounded to integers that still sum
/// to the total.  Rounding uses the largest-remainder method followed by a
/// local-search refinement that moves single blocks between devices while
/// doing so strictly reduces the makespan under the given speed functions
/// — this absorbs the small imbalance rounding can introduce near a
/// performance cliff.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fpm/part/partition.hpp"

namespace fpm::part {

/// Integer 1-D partition: blocks[i] whole blocks for device i.
struct IntPartition1D {
    std::vector<std::int64_t> blocks;

    [[nodiscard]] std::int64_t total() const;
};

/// Largest-remainder rounding: preserves the sum exactly and each device's
/// count differs from its continuous share by less than 1.
IntPartition1D round_largest_remainder(const Partition1D& partition,
                                       std::int64_t total);

/// Rounding plus makespan-reducing local search under `models` (at most
/// 256 single-block moves).  Devices never exceed their max_problem();
/// throws if the continuous partition already violates capacity.
IntPartition1D round_partition(const Partition1D& partition, std::int64_t total,
                               std::span<const core::SpeedFunction> models);

} // namespace fpm::part
