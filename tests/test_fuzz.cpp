// Seeded fuzz/property tests across the partitioning stack: randomly
// generated device populations and workloads must uphold the library's
// invariants, and the column-layout DP must match an exhaustive oracle on
// small instances.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>

#include "fpm/common/rng.hpp"
#include "fpm/part/column2d.hpp"
#include "fpm/part/fpm_partitioner.hpp"
#include "fpm/part/integer.hpp"
#include "random_model.hpp"

namespace fpm::part {
namespace {

using core::SpeedFunction;

using fuzz::device_name;
using fuzz::random_model;

TEST(FuzzPartition, InvariantsHoldAcrossRandomPopulations) {
    Rng rng(20120924);  // CLUSTER 2012 conference date
    for (int trial = 0; trial < 60; ++trial) {
        const std::size_t devices = 1 + rng.uniform_int(0, 7);
        std::vector<SpeedFunction> models;
        double capacity = 0.0;
        for (std::size_t i = 0; i < devices; ++i) {
            models.push_back(random_model(rng, device_name(i)));
            capacity += models.back().max_problem();
            if (std::isinf(capacity)) {
                capacity = std::numeric_limits<double>::infinity();
            }
        }
        const double total =
            std::min(rng.uniform(1.0, 6000.0),
                     std::isinf(capacity) ? 6000.0 : 0.95 * capacity);

        const auto result = partition_fpm(models, total);
        // Conservation.
        ASSERT_NEAR(result.partition.total(), total, 1e-5 * total)
            << "trial " << trial;
        for (std::size_t i = 0; i < devices; ++i) {
            // Non-negativity and capacity.
            ASSERT_GE(result.partition.share[i], 0.0) << "trial " << trial;
            ASSERT_LE(result.partition.share[i],
                      models[i].max_problem() * (1.0 + 1e-9))
                << "trial " << trial;
        }
        // The true makespan never exceeds the balanced-time estimate by
        // much (monotone-envelope slack only).
        const double span = makespan(models, result.partition.share);
        ASSERT_LE(span, result.balanced_time * 1.25 + 1e-9)
            << "trial " << trial;
    }
}

TEST(FuzzPartition, IntegerRoundingPreservesEverything) {
    Rng rng(777);
    for (int trial = 0; trial < 60; ++trial) {
        const std::size_t devices = 1 + rng.uniform_int(0, 5);
        std::vector<SpeedFunction> models;
        for (std::size_t i = 0; i < devices; ++i) {
            models.push_back(random_model(rng, device_name(i)));
        }
        double capacity = 0.0;
        for (const auto& model : models) {
            capacity += model.max_problem();
            if (std::isinf(capacity)) {
                capacity = std::numeric_limits<double>::infinity();
                break;
            }
        }
        const auto total = static_cast<std::int64_t>(
            std::min(rng.uniform(1.0, 3000.0),
                     std::isinf(capacity) ? 3000.0 : 0.9 * capacity));
        if (total < 1) {
            continue;
        }
        const auto continuous = partition_fpm(models, static_cast<double>(total));
        const auto blocks = round_partition(continuous.partition, total, models);
        ASSERT_EQ(blocks.total(), total) << "trial " << trial;
        for (std::size_t i = 0; i < devices; ++i) {
            ASSERT_GE(blocks.blocks[i], 0);
            ASSERT_LE(static_cast<double>(blocks.blocks[i]),
                      models[i].max_problem() + 1e-9);
        }
    }
}

/// Exhaustive oracle for the column-layout DP: minimal continuous
/// half-perimeter cost over ALL contiguous compositions of the sorted
/// devices into columns.
double brute_force_column_cost(const std::vector<double>& sorted_areas,
                               double n) {
    const std::size_t m = sorted_areas.size();
    double best = std::numeric_limits<double>::infinity();
    // Enumerate compositions via bitmask of cut positions.
    const std::size_t masks = 1U << (m - 1);
    for (std::size_t mask = 0; mask < masks; ++mask) {
        double cost = 0.0;
        std::size_t begin = 0;
        bool feasible = true;
        for (std::size_t i = 0; i <= m - 1; ++i) {
            const bool cut = (i == m - 1) || ((mask >> i) & 1U);
            if (!cut) {
                continue;
            }
            const std::size_t end = i + 1;
            const std::size_t count = end - begin;
            if (static_cast<double>(count) > n) {
                feasible = false;
                break;
            }
            double area = 0.0;
            for (std::size_t k = begin; k < end; ++k) {
                area += sorted_areas[k];
            }
            cost += static_cast<double>(count) * area / n + n;
            begin = end;
        }
        if (feasible) {
            best = std::min(best, cost);
        }
    }
    return best;
}

TEST(FuzzColumn2D, DpMatchesExhaustiveOracle) {
    Rng rng(424242);
    for (int trial = 0; trial < 40; ++trial) {
        const std::int64_t n = 4 + rng.uniform_int(0, 8);
        const std::size_t devices = 2 + rng.uniform_int(0, 3);

        // Random positive areas summing to n*n.
        std::vector<std::int64_t> areas(devices, 1);
        std::int64_t remaining = n * n - static_cast<std::int64_t>(devices);
        for (std::size_t i = 0; i + 1 < devices && remaining > 0; ++i) {
            const std::int64_t take = rng.uniform_int(0, remaining);
            areas[i] += take;
            remaining -= take;
        }
        areas[devices - 1] += remaining;

        const ColumnLayout layout = column_partition(n, areas);
        layout.validate();

        // The DP's *continuous* cost must equal the oracle; reconstruct it
        // from the column structure (continuous widths).
        std::vector<double> sorted_areas;
        for (const auto area : areas) {
            sorted_areas.push_back(static_cast<double>(area));
        }
        std::sort(sorted_areas.rbegin(), sorted_areas.rend());
        const double oracle =
            brute_force_column_cost(sorted_areas, static_cast<double>(n));

        double dp_cost = 0.0;
        for (std::size_t c = 0; c < layout.columns.size(); ++c) {
            double column_area = 0.0;
            for (const std::size_t device : layout.columns[c]) {
                column_area += static_cast<double>(areas[device]);
            }
            dp_cost += static_cast<double>(layout.columns[c].size()) *
                           column_area / static_cast<double>(n) +
                       static_cast<double>(n);
        }
        ASSERT_NEAR(dp_cost, oracle, 1e-6 * oracle)
            << "trial " << trial << " n=" << n << " devices=" << devices;
    }
}

TEST(FuzzColumn2D, IntegerCostTracksContinuousCost) {
    // The integerised half-perimeter sum stays within a small additive
    // margin of the continuous DP cost (rounding shifts each rectangle by
    // at most one row/column).
    Rng rng(99);
    for (int trial = 0; trial < 30; ++trial) {
        const std::int64_t n = 10 + rng.uniform_int(0, 50);
        const std::size_t devices = 2 + rng.uniform_int(0, 6);
        std::vector<std::int64_t> areas(devices, 1);
        std::int64_t remaining = n * n - static_cast<std::int64_t>(devices);
        for (std::size_t i = 0; i + 1 < devices && remaining > 0; ++i) {
            const std::int64_t take = rng.uniform_int(0, remaining);
            areas[i] += take;
            remaining -= take;
        }
        areas[devices - 1] += remaining;

        const ColumnLayout layout = column_partition(n, areas);
        double continuous_cost = 0.0;
        for (std::size_t c = 0; c < layout.columns.size(); ++c) {
            double column_area = 0.0;
            for (const std::size_t device : layout.columns[c]) {
                column_area += static_cast<double>(areas[device]);
            }
            continuous_cost += static_cast<double>(layout.columns[c].size()) *
                                   column_area / static_cast<double>(n) +
                               static_cast<double>(n);
        }
        ASSERT_LE(static_cast<double>(layout.comm_cost()),
                  continuous_cost + 2.0 * static_cast<double>(devices))
            << "trial " << trial;
    }
}

} // namespace
} // namespace fpm::part
