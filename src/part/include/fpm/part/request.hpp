/// \file request.hpp
/// \brief The unified partitioning entry point.
///
/// The pipeline algorithm dispatch → continuous partition → integer
/// rounding → column 2-D layout behind one call: build a
/// PartitionRequest, call partition(), get a PartitionPlan.  Every 2-D
/// plan comes from here: the serve subsystem, `fpmpart_partition`, the
/// paper benches and the examples plan through it, and the simulated
/// applications run its layout.  An fpm plan builds one envelope view
/// (core::MonotoneTime) per device and runs the solve, the shares, the
/// rounding and the makespan on it, so each device regenerates its
/// envelope segment once per plan.  1-D workloads (stencil rows, LU
/// panels) and the per-stage benchmarks call partition_fpm() and
/// round_partition() directly, which build views of their own; the
/// plans are the same bit for bit.  Algorithm and its one
/// to_string()/parse_algorithm() pair live here and nowhere else.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "fpm/core/speed_function.hpp"
#include "fpm/part/column2d.hpp"

namespace fpm::part {

/// Partitioning algorithm selector: the paper's FPM, the CPM baseline
/// (each model collapsed to its speed at the even share), and even
/// shares (the homogeneous baseline of Fig. 7).
enum class Algorithm { kFpm, kCpm, kEven };

/// Lower-case wire/CLI name ("fpm", "cpm", "even").
[[nodiscard]] const char* to_string(Algorithm algorithm) noexcept;

/// Inverse of to_string(); nullopt for unknown spellings.
[[nodiscard]] std::optional<Algorithm>
parse_algorithm(std::string_view text) noexcept;

/// Largest n partition() accepts: n * n <= 2^52, so every block count is
/// exact in a double.
inline constexpr std::int64_t kMaxN = std::int64_t{1} << 26;

/// One partitioning problem: distribute an n x n block matrix over the
/// devices described by `models`.
struct PartitionRequest {
    std::span<const core::SpeedFunction> models;
    std::int64_t n = 0;  ///< matrix size in blocks (workload = n * n)
    Algorithm algorithm = Algorithm::kFpm;
    bool with_layout = true;  ///< also compute the column 2-D layout
};

/// The full answer: integer shares plus (optionally) the column-based
/// 2-D layout and the predicted quality metrics.
struct PartitionPlan {
    std::int64_t n = 0;
    Algorithm algorithm = Algorithm::kFpm;
    bool with_layout = true;
    std::vector<std::int64_t> blocks;  ///< per-device block counts
    ColumnLayout layout;        ///< rects empty when !with_layout
    double balanced_time = 0.0; ///< equalised time T (0 for cpm/even)
    /// Predicted max_i t_i(blocks[i]), t_i each model's monotone time
    /// envelope: the time the FPM solve balances and round_partition()
    /// minimises (see part::makespan).
    double makespan = 0.0;
    std::int64_t comm_cost = 0; ///< half-perimeter sum (0 without layout)
};

/// Runs the full pipeline for `request`.  Throws fpm::Error for n outside
/// 1..kMaxN, an empty model set or an infeasible workload.
[[nodiscard]] PartitionPlan partition(const PartitionRequest& request);

/// The capacity repair of the cpm and even plans: every device past its
/// capacity keeps the floor of it, and the overflow goes where moving it
/// one block at a time, in device order, to the device with the most room
/// (ties to the lower index) would put it.  The first unbounded device
/// takes it all; bounded ones fill by room.  O(p log n), whatever the
/// overflow.  Throws fpm::Error when the devices have no room for it.
void repair_capacity(std::vector<std::int64_t>& blocks,
                     std::span<const core::SpeedFunction> models);

} // namespace fpm::part
