#include "fpm/part/integer.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "fpm/common/error.hpp"
#include "views.hpp"

namespace fpm::part {

namespace {

/// Sets result.blocks to the floor of each share and returns the number
/// of blocks the floors leave over, which must be 0..p.
std::int64_t take_floors(const Partition1D& partition, std::int64_t total,
                         IntPartition1D& result) {
    FPM_CHECK(!partition.share.empty(), "empty partition");
    FPM_CHECK(total >= 0, "total must be non-negative");
    const std::size_t p = partition.share.size();
    result.blocks.assign(p, 0);
    std::int64_t assigned = 0;
    for (std::size_t i = 0; i < p; ++i) {
        FPM_CHECK(partition.share[i] >= 0.0, "shares must be non-negative");
        result.blocks[i] =
            static_cast<std::int64_t>(std::floor(partition.share[i]));
        assigned += result.blocks[i];
    }
    const std::int64_t leftover = total - assigned;
    FPM_CHECK(leftover >= 0, "continuous shares exceed the integer total");
    FPM_CHECK(leftover <= static_cast<std::int64_t>(p),
              "continuous shares fall short of the integer total by more "
              "than one block per device; the partition does not sum to "
              "the total");
    return leftover;
}

} // namespace

std::int64_t IntPartition1D::total() const {
    return std::accumulate(blocks.begin(), blocks.end(), std::int64_t{0});
}

IntPartition1D round_largest_remainder(const Partition1D& partition,
                                       std::int64_t total) {
    IntPartition1D result;
    const std::int64_t leftover = take_floors(partition, total, result);
    // Largest fractional part first; the sort is stable, so equal ones
    // keep device order.
    std::vector<std::size_t> order(result.blocks.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::ranges::stable_sort(order, std::greater{}, [&](std::size_t i) {
        return partition.share[i] - static_cast<double>(result.blocks[i]);
    });
    for (std::int64_t k = 0; k < leftover; ++k) {
        result.blocks[order[static_cast<std::size_t>(k)]] += 1;
    }
    return result;
}

IntPartition1D round_partition(const Partition1D& partition, std::int64_t total,
                               std::span<const core::SpeedFunction> models) {
    std::vector<core::MonotoneTime> envelopes = make_views(models);
    return round_partition(partition, total, envelopes);
}

IntPartition1D round_partition(const Partition1D& partition, std::int64_t total,
                               std::span<core::MonotoneTime> envelopes) {
    FPM_CHECK(envelopes.size() == partition.share.size(),
              "models and partition must have equal length");
    IntPartition1D result;
    std::int64_t leftover = take_floors(partition, total, result);
    const std::size_t p = envelopes.size();

    // The views serve the greedy and the makespan; next[i] is device i's
    // time with one more block, infinity past its capacity.
    std::vector<double> next(p);
    auto time_with_one_more = [&](std::size_t i) {
        const double x = static_cast<double>(result.blocks[i] + 1);
        return x <= envelopes[i].max_problem()
                   ? envelopes[i].time(x)
                   : std::numeric_limits<double>::infinity();
    };
    for (std::size_t i = 0; i < p; ++i) {
        FPM_CHECK(
            static_cast<double>(result.blocks[i]) <= envelopes[i].max_problem(),
            "a share's floor exceeds its device's capacity");
        next[i] = time_with_one_more(i);
    }
    for (; leftover > 0; --leftover) {
        // The first least time: ties go to the lower index.
        const auto j = static_cast<std::size_t>(
            std::ranges::min_element(next) - next.begin());
        FPM_CHECK(std::isfinite(next[j]),
                  "no device has room for a leftover block");
        result.blocks[j] += 1;
        next[j] = time_with_one_more(j);
    }

    for (std::size_t i = 0; i < p; ++i) {
        if (result.blocks[i] > 0) {
            result.makespan = std::max(
                result.makespan,
                envelopes[i].time(static_cast<double>(result.blocks[i])));
        }
    }
    return result;
}

} // namespace fpm::part
