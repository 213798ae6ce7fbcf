#include "fpm/part/request.hpp"

#include <algorithm>

#include "fpm/common/error.hpp"
#include "fpm/obs/trace.hpp"
#include "fpm/part/fpm_partitioner.hpp"
#include "fpm/part/integer.hpp"
#include "fpm/part/partition.hpp"

namespace fpm::part {

const char* to_string(Algorithm algorithm) noexcept {
    switch (algorithm) {
    case Algorithm::kFpm:
        return "fpm";
    case Algorithm::kCpm:
        return "cpm";
    case Algorithm::kEven:
        return "even";
    }
    return "?";
}

std::optional<Algorithm> parse_algorithm(std::string_view text) noexcept {
    if (text == "fpm") {
        return Algorithm::kFpm;
    }
    if (text == "cpm") {
        return Algorithm::kCpm;
    }
    if (text == "even") {
        return Algorithm::kEven;
    }
    return std::nullopt;
}

namespace {

/// Moves blocks off every device past its capacity, one at a time, to the
/// device with the most headroom; throws when no device has room.
void repair_capacity(std::vector<std::int64_t>& blocks,
                     std::span<const core::SpeedFunction> models) {
    const std::size_t p = blocks.size();
    for (std::size_t i = 0; i < p; ++i) {
        while (static_cast<double>(blocks[i]) > models[i].max_problem()) {
            std::size_t best = p;
            double best_room = 0.0;
            for (std::size_t j = 0; j < p; ++j) {
                const double room =
                    models[j].max_problem() - static_cast<double>(blocks[j]);
                if (j != i && room > best_room) {
                    best_room = room;
                    best = j;
                }
            }
            FPM_CHECK(best < p && best_room >= 1.0,
                      "no device has room for the capacity overflow");
            blocks[i] -= 1;
            blocks[best] += 1;
        }
    }
}

} // namespace

PartitionPlan partition(const PartitionRequest& request) {
    obs::Span span("part.partition", static_cast<std::uint64_t>(request.n));
    FPM_CHECK(request.n > 0, "workload size must be positive");
    FPM_CHECK(request.n <= kMaxN, "workload size exceeds 2^26");
    FPM_CHECK(!request.models.empty(), "need at least one device");
    const auto& models = request.models;
    const double total =
        static_cast<double>(request.n) * static_cast<double>(request.n);

    Partition1D continuous;
    PartitionPlan plan;
    plan.n = request.n;
    plan.algorithm = request.algorithm;
    plan.with_layout = request.with_layout;
    switch (request.algorithm) {
    case Algorithm::kFpm: {
        auto result = partition_fpm(models, total);
        continuous = std::move(result.partition);
        plan.balanced_time = result.balanced_time;
        break;
    }
    case Algorithm::kCpm: {
        // The traditional baseline: each model collapses to its speed at
        // the even share.
        std::vector<double> speeds;
        speeds.reserve(models.size());
        const double share = total / static_cast<double>(models.size());
        for (const auto& model : models) {
            speeds.push_back(model.speed(std::min(share, model.max_problem())));
        }
        continuous = partition_cpm(speeds, total);
        break;
    }
    case Algorithm::kEven:
        continuous = partition_homogeneous(models.size(), total);
        break;
    }

    IntPartition1D rounded;
    if (request.algorithm == Algorithm::kFpm) {
        rounded = round_partition(continuous, request.n * request.n, models);
    } else {
        // The paper's baselines round by largest remainder.
        rounded = round_largest_remainder(continuous, request.n * request.n);
        repair_capacity(rounded.blocks, models);
        rounded.makespan =
            makespan(models, std::span<const std::int64_t>(rounded.blocks));
    }
    plan.makespan = rounded.makespan;
    if (request.with_layout) {
        plan.layout = column_partition(request.n, rounded.blocks);
        plan.comm_cost = plan.layout.comm_cost();
    }
    plan.blocks = std::move(rounded.blocks);
    return plan;
}

} // namespace fpm::part
