#include "fpm/part/hierarchical.hpp"

#include <numeric>

#include "fpm/common/error.hpp"
#include "views.hpp"

namespace fpm::part {

HierarchicalResult partition_hierarchical(
    const std::vector<std::vector<core::SpeedFunction>>& node_models,
    std::int64_t total) {
    FPM_CHECK(!node_models.empty(), "need at least one node");
    // One envelope view per device of every node serves the flat solve,
    // its rounding and the makespan.
    std::vector<core::MonotoneTime> envelopes;
    for (const auto& node : node_models) {
        FPM_CHECK(!node.empty(), "node without devices");
        for (const auto& model : node) {
            envelopes.emplace_back(model);
        }
    }
    const auto flat = partition_fpm(envelopes, static_cast<double>(total));
    const auto rounded = round_partition(flat.partition, total, envelopes);

    HierarchicalResult result;
    result.makespan = rounded.makespan;
    auto first = rounded.blocks.begin();
    for (const auto& node : node_models) {
        const auto last = first + static_cast<std::ptrdiff_t>(node.size());
        result.device_blocks.emplace_back(first, last);
        result.node_blocks.push_back(
            std::accumulate(first, last, std::int64_t{0}));
        first = last;
    }
    return result;
}

} // namespace fpm::part
