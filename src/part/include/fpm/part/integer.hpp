/// \file integer.hpp
/// \brief Integer rounding of continuous partitions.
///
/// The application distributes whole b-by-b blocks.  round_partition()
/// rounds an FPM partition exactly: it takes the floor of each share, then
/// gives each of the at most p leftover blocks, one at a time, to the
/// device whose envelope time (core::MonotoneTime) after taking it is
/// least, ties to the lower index, never past a device's capacity.  The
/// precondition is that the shares are partition_fpm()'s under the same
/// models.  Why it is exact: each envelope t_i is non-decreasing, so no
/// plan of N blocks beats the N-th smallest block time t_i(k).  x_i is
/// the largest size with t_i(x_i) <= T at the balanced time T, so the
/// floors hold exactly the blocks whose time is at most T, and the greedy
/// adds the smallest remaining ones in increasing order.  Raw time is not
/// monotone, hence the envelope.  round_partition() builds one view per
/// device for the greedy and the makespan; part::partition() and
/// partition_hierarchical() round on the views their solve used, so the
/// segments the solve regenerated serve the rounding too.  The cpm and
/// even baselines round by largest remainder.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fpm/part/partition.hpp"

namespace fpm::part {

/// Integer 1-D partition: blocks[i] whole blocks for device i.
struct IntPartition1D {
    std::vector<std::int64_t> blocks;
    /// max_i t_i(blocks[i]) under the models' envelopes; 0 when
    /// round_largest_remainder() made the partition.
    double makespan = 0.0;

    [[nodiscard]] std::int64_t total() const;
};

/// Largest-remainder rounding: preserves the sum exactly and each device's
/// count differs from its continuous share by less than 1.  Equal
/// fractional parts take the leftover blocks in device order.
IntPartition1D round_largest_remainder(const Partition1D& partition,
                                       std::int64_t total);

/// Floor plus greedy under `models` (see file comment).  Throws on unequal
/// lengths, a negative share, a floor past its capacity, floors above the
/// total or more than p short of it, or a leftover block no device fits.
IntPartition1D round_partition(const Partition1D& partition, std::int64_t total,
                               std::span<const core::SpeedFunction> models);

} // namespace fpm::part
