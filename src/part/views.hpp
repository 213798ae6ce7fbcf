/// \file views.hpp
/// \brief The FPM solve and its rounding over envelope views a plan shares.
///
/// The stages of one plan query the same envelope segment of each device,
/// which a core::MonotoneTime view regenerates once and keeps, so
/// part::partition() and partition_hierarchical() build one view per
/// device and pass it through these forms.  The public partition_fpm()
/// and round_partition() wrap them with views of their own.  Private to
/// fpm_part.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fpm/core/speed_function.hpp"
#include "fpm/part/fpm_partitioner.hpp"
#include "fpm/part/integer.hpp"

namespace fpm::part {

/// One envelope view per model, in order; they must not outlive `models`.
inline std::vector<core::MonotoneTime>
make_views(std::span<const core::SpeedFunction> models) {
    std::vector<core::MonotoneTime> views;
    views.reserve(models.size());
    for (const auto& model : models) {
        views.emplace_back(model);
    }
    return views;
}

/// partition_fpm() over the devices' views.
FpmPartitionResult partition_fpm(std::span<core::MonotoneTime> envelopes,
                                 double total);

/// round_partition() over the devices' views.
IntPartition1D round_partition(const Partition1D& partition, std::int64_t total,
                               std::span<core::MonotoneTime> envelopes);

} // namespace fpm::part
