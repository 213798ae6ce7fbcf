#include "fpm/part/request.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "fpm/common/error.hpp"
#include "fpm/obs/trace.hpp"
#include "fpm/part/partition.hpp"
#include "views.hpp"

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

void repair_capacity(std::vector<std::int64_t>& blocks,
                     std::span<const core::SpeedFunction> models) {
    FPM_CHECK(blocks.size() == models.size(),
              "blocks and models must have equal length");
    const std::size_t p = blocks.size();
    // Each device past its capacity keeps the floor of it.  Only devices
    // within theirs can receive: a repaired one has less than a block of
    // room, and one not yet repaired has none.
    std::int64_t overflow = 0;
    std::vector<double> room(p, 0.0);
    for (std::size_t i = 0; i < p; ++i) {
        const double capacity = models[i].max_problem();
        if (static_cast<double>(blocks[i]) > capacity) {
            const auto keep = static_cast<std::int64_t>(std::floor(capacity));
            overflow += blocks[i] - keep;
            blocks[i] = keep;
        } else {
            room[i] = capacity - static_cast<double>(blocks[i]);
        }
    }
    if (overflow == 0) {
        return;
    }
    const auto unbounded =
        std::ranges::find(room, std::numeric_limits<double>::infinity());
    if (unbounded != room.end()) {
        blocks[static_cast<std::size_t>(unbounded - room.begin())] += overflow;
        return;
    }

    // Moved one at a time, each block goes to the most room, so the
    // overflow fills the slots room_j, room_j - 1, ... of all devices in
    // decreasing order, ties to the lower index.  slots(t) counts the
    // slots of at least t (t >= 1), up to the overflow; rooms are exact
    // below 2^53, and larger ones are read as 2^53.
    std::vector<std::int64_t> whole(p);
    for (std::size_t j = 0; j < p; ++j) {
        whole[j] =
            static_cast<std::int64_t>(std::min(std::floor(room[j]), 0x1p53));
    }
    auto slots = [&](std::int64_t t) {
        std::int64_t count = 0;
        for (const std::int64_t w : whole) {
            count += std::max<std::int64_t>(0, w - t + 1);
            if (count >= overflow) {
                return overflow;
            }
        }
        return count;
    };
    FPM_CHECK(slots(1) == overflow,
              "no device has room for the capacity overflow");
    // The level: the largest t with a slot of at least t for every block.
    std::int64_t level = 1;
    std::int64_t hi = std::ranges::max(whole);
    while (level < hi) {
        const std::int64_t mid = level + (hi - level + 1) / 2;
        if (slots(mid) == overflow) {
            level = mid;
        } else {
            hi = mid - 1;
        }
    }
    // Every slot above the level's band [level, level + 1), then the
    // band's slots, one per device, by the fraction of the room.
    std::vector<std::size_t> band;
    for (std::size_t j = 0; j < p; ++j) {
        if (whole[j] >= level) {
            blocks[j] += whole[j] - level;
            overflow -= whole[j] - level;
            band.push_back(j);
        }
    }
    std::ranges::stable_sort(band, std::greater{}, [&](std::size_t j) {
        return room[j] - std::floor(room[j]);
    });
    for (std::int64_t k = 0; k < overflow; ++k) {
        blocks[band[static_cast<std::size_t>(k)]] += 1;
    }
}

PartitionPlan partition(const PartitionRequest& request) {
    obs::Span span("part.partition", static_cast<std::uint64_t>(request.n));
    FPM_CHECK(request.n > 0, "workload size must be positive");
    FPM_CHECK(request.n <= kMaxN, "workload size exceeds 2^26");
    FPM_CHECK(!request.models.empty(), "need at least one device");
    const auto& models = request.models;
    const double total =
        static_cast<double>(request.n) * static_cast<double>(request.n);

    PartitionPlan plan;
    plan.n = request.n;
    plan.algorithm = request.algorithm;
    plan.with_layout = request.with_layout;
    IntPartition1D rounded;
    if (request.algorithm == Algorithm::kFpm) {
        // One envelope view per device serves the solve, the shares, the
        // rounding and the makespan.
        std::vector<core::MonotoneTime> envelopes = make_views(models);
        const auto continuous = partition_fpm(envelopes, total);
        plan.balanced_time = continuous.balanced_time;
        rounded = round_partition(continuous.partition, request.n * request.n,
                                  envelopes);
    } else {
        Partition1D continuous;
        if (request.algorithm == Algorithm::kCpm) {
            // The traditional baseline: each model collapses to its speed
            // at the even share.
            std::vector<double> speeds;
            speeds.reserve(models.size());
            const double share = total / static_cast<double>(models.size());
            for (const auto& model : models) {
                speeds.push_back(
                    model.speed(std::min(share, model.max_problem())));
            }
            continuous = partition_cpm(speeds, total);
        } else {
            continuous = partition_homogeneous(models.size(), total);
        }
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
