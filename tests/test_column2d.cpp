// Tests for the column-based 2-D partitioning: exact cover, area fidelity,
// communication-cost optimality of the DP, and degenerate inputs.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "fpm/common/rng.hpp"
#include "fpm/part/column2d.hpp"

namespace fpm::part {
namespace {

std::vector<std::int64_t> random_areas(std::int64_t n, std::size_t devices,
                                       std::uint64_t seed) {
    // Random positive weights normalised to n*n with largest remainder.
    fpm::Rng rng(seed);
    std::vector<double> weights(devices);
    for (auto& w : weights) {
        w = rng.uniform(0.2, 5.0);
    }
    const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
    std::vector<std::int64_t> areas(devices, 0);
    std::int64_t assigned = 0;
    for (std::size_t i = 0; i + 1 < devices; ++i) {
        areas[i] = static_cast<std::int64_t>(weights[i] / sum *
                                             static_cast<double>(n * n));
        assigned += areas[i];
    }
    areas[devices - 1] = n * n - assigned;
    return areas;
}

TEST(Column2D, SingleDeviceGetsWholeMatrix) {
    const std::vector<std::int64_t> areas = {100};
    const ColumnLayout layout = column_partition(10, areas);
    EXPECT_EQ(layout.rects[0].w, 10);
    EXPECT_EQ(layout.rects[0].h, 10);
    EXPECT_EQ(layout.comm_cost(), 20);
    EXPECT_EQ(layout.columns.size(), 1U);
}

TEST(Column2D, EqualDevicesFormSquarishGrid) {
    // 4 equal devices on a 10x10 matrix: 2 columns of 2 beats 1 column of
    // 4 and 4 columns of 1 (cost 2*(5+5)*2 = 40 vs 4*(10+2.5) wide/flat).
    const std::vector<std::int64_t> areas = {25, 25, 25, 25};
    const ColumnLayout layout = column_partition(10, areas);
    EXPECT_EQ(layout.columns.size(), 2U);
    EXPECT_EQ(layout.comm_cost(), 40);
    for (const auto& rect : layout.rects) {
        EXPECT_EQ(rect.w, 5);
        EXPECT_EQ(rect.h, 5);
    }
}

TEST(Column2D, ZeroAreaDevicesGetEmptyRects) {
    const std::vector<std::int64_t> areas = {0, 100, 0};
    const ColumnLayout layout = column_partition(10, areas);
    EXPECT_EQ(layout.rects[0].area(), 0);
    EXPECT_EQ(layout.rects[2].area(), 0);
    EXPECT_EQ(layout.rects[1].area(), 100);
}

TEST(Column2D, Validation) {
    EXPECT_THROW(column_partition(0, std::vector<std::int64_t>{1}), fpm::Error);
    EXPECT_THROW(column_partition(10, std::vector<std::int64_t>{}), fpm::Error);
    EXPECT_THROW(column_partition(10, std::vector<std::int64_t>{50, 49}),
                 fpm::Error);  // sums to 99, not 100
    EXPECT_THROW(column_partition(10, std::vector<std::int64_t>{101, -1}),
                 fpm::Error);
}

TEST(Column2D, AreasCloseToRequested) {
    const std::int64_t n = 60;
    const auto areas = random_areas(n, 6, 42);
    const ColumnLayout layout = column_partition(n, areas);
    const auto actual = layout.actual_areas();
    for (std::size_t i = 0; i < areas.size(); ++i) {
        // Rounding to whole rows/columns perturbs each device's area by at
        // most about one row plus one column of its rectangle.
        const double slack =
            static_cast<double>(layout.rects[i].w + layout.rects[i].h + 2);
        EXPECT_NEAR(static_cast<double>(actual[i]),
                    static_cast<double>(areas[i]), slack)
            << "device " << i;
    }
}

TEST(Column2D, CommCostNotWorseThanSingleColumn) {
    // The DP explores the single-column arrangement, so its result can
    // never cost more.
    const std::int64_t n = 40;
    const auto areas = random_areas(n, 5, 7);
    const ColumnLayout layout = column_partition(n, areas);

    std::int64_t single_column_cost = 0;
    for (const auto area : areas) {
        if (area > 0) {
            // Width n, height area/n.
            single_column_cost +=
                n + (area + n - 1) / n;
        }
    }
    EXPECT_LE(layout.comm_cost(), single_column_cost + 5);
}

TEST(Column2D, MatchesPaperScaleDeviceCounts) {
    // A hybrid-node-like split: 2 GPUs with big shares + 4 sockets.
    const std::int64_t n = 60;
    std::vector<std::int64_t> areas = {1627, 657, 295, 295, 342, 342};
    const std::int64_t sum =
        std::accumulate(areas.begin(), areas.end(), std::int64_t{0});
    areas[0] += n * n - sum;  // absorb rounding into the big device
    const ColumnLayout layout = column_partition(n, areas);
    layout.validate();
    // The largest device must get the squarest rectangle: aspect within 3x.
    const Rect big = layout.rects[0];
    const double aspect = static_cast<double>(std::max(big.w, big.h)) /
                          static_cast<double>(std::min(big.w, big.h));
    EXPECT_LT(aspect, 3.0);
}

// Parameterized exact-cover sweep.
using LayoutParam = std::tuple<int, int, std::uint64_t>;

class ColumnSweep : public ::testing::TestWithParam<LayoutParam> {};

TEST_P(ColumnSweep, ExactCoverAndConsistency) {
    const auto [n, devices, seed] = GetParam();
    const auto areas = random_areas(n, devices, seed);
    const ColumnLayout layout = column_partition(n, areas);

    // validate() checks cover + disjointness; must not throw.
    EXPECT_NO_THROW(layout.validate());

    // Column bookkeeping consistent with rectangles.
    std::int64_t width_sum = 0;
    for (std::size_t c = 0; c < layout.columns.size(); ++c) {
        width_sum += layout.column_widths[c];
        std::int64_t height_sum = 0;
        for (const std::size_t device : layout.columns[c]) {
            EXPECT_EQ(layout.rects[device].w, layout.column_widths[c]);
            height_sum += layout.rects[device].h;
        }
        EXPECT_EQ(height_sum, n);
    }
    EXPECT_EQ(width_sum, n);

    // Total area conserved.
    const auto actual = layout.actual_areas();
    EXPECT_EQ(std::accumulate(actual.begin(), actual.end(), std::int64_t{0}),
              static_cast<std::int64_t>(n) * n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ColumnSweep,
    ::testing::Combine(::testing::Values(4, 10, 40, 64),
                       ::testing::Values(1, 2, 3, 6, 8),
                       ::testing::Values(1U, 2U, 3U)));

TEST(Column2D, ManyEqualTinyDevices) {
    // p = n devices of one row each: must still cover exactly.
    const std::int64_t n = 8;
    std::vector<std::int64_t> areas(8, 8);
    const ColumnLayout layout = column_partition(n, areas);
    layout.validate();
}

/// A valid layout of three columns, two rectangles each, and an empty
/// rectangle, for validate() to reject mutations of.
ColumnLayout mutable_layout() {
    const std::vector<std::int64_t> areas = {30, 14, 13, 0, 16, 14, 13};
    ColumnLayout layout = column_partition(10, areas);
    EXPECT_NO_THROW(layout.validate());
    EXPECT_EQ(layout.columns.size(), 3U);
    EXPECT_EQ(layout.rects[3].area(), 0);
    return layout;
}

/// The first column that stacks at least two rectangles.
std::size_t tall_column(const ColumnLayout& layout) {
    for (std::size_t c = 0; c < layout.columns.size(); ++c) {
        if (layout.columns[c].size() >= 2) {
            return c;
        }
    }
    ADD_FAILURE() << "no column holds two rectangles";
    return 0;
}

TEST(Column2DValidate, RejectsOverlapGapAndOverflow) {
    {
        // The second rectangle of a column moved onto the first.
        ColumnLayout layout = mutable_layout();
        const auto& column = layout.columns[tall_column(layout)];
        layout.rects[column[1]].row0 = layout.rects[column[0]].row0;
        EXPECT_THROW(layout.validate(), LogicError);
    }
    {
        // A column's last rectangle one row short: a gap.
        ColumnLayout layout = mutable_layout();
        layout.rects[layout.columns[tall_column(layout)].back()].h -= 1;
        EXPECT_THROW(layout.validate(), LogicError);
    }
    {
        // The last column's rectangles shifted one block past n.
        ColumnLayout layout = mutable_layout();
        for (const std::size_t device : layout.columns.back()) {
            layout.rects[device].col0 += 1;
        }
        EXPECT_THROW(layout.validate(), LogicError);
    }
    {
        // A rectangle one row taller, reaching past row n.
        ColumnLayout layout = mutable_layout();
        layout.rects[layout.columns.front().back()].h += 1;
        EXPECT_THROW(layout.validate(), LogicError);
    }
    {
        // A negative width.
        ColumnLayout layout = mutable_layout();
        layout.rects[layout.columns.front().front()].w *= -1;
        EXPECT_THROW(layout.validate(), LogicError);
    }
}

TEST(Column2DValidate, RejectsBookkeepingThatDisagreesWithTheRects) {
    // The rectangles still tile the matrix in each case, so only the
    // columns and their widths give the layout away.
    {
        // A non-empty rectangle that no column lists.
        ColumnLayout layout = mutable_layout();
        layout.columns[tall_column(layout)].pop_back();
        EXPECT_THROW(layout.validate(), LogicError);
    }
    {
        // A column width that disagrees with its rectangles.
        ColumnLayout layout = mutable_layout();
        layout.column_widths.front() += 1;
        layout.column_widths.back() -= 1;
        EXPECT_THROW(layout.validate(), LogicError);
    }
    {
        // A device listed twice, in its own column and another.
        ColumnLayout layout = mutable_layout();
        const std::size_t device = layout.columns.front().front();
        layout.columns.back().push_back(device);
        EXPECT_THROW(layout.validate(), LogicError);
    }
    {
        // The empty rectangle listed in a column.
        ColumnLayout layout = mutable_layout();
        layout.columns.back().push_back(3);
        EXPECT_THROW(layout.validate(), LogicError);
    }
    {
        // One width per column.
        ColumnLayout layout = mutable_layout();
        layout.column_widths.push_back(0);
        EXPECT_THROW(layout.validate(), LogicError);
    }
}

TEST(Column2D, DeviceCountBeyondRowsStillFeasibleViaColumns) {
    // 12 devices on an 8x8 matrix: no single column can host them all,
    // but multiple columns can.
    const std::int64_t n = 8;
    std::vector<std::int64_t> areas(12, 5);
    areas[0] += 64 - 60;
    const ColumnLayout layout = column_partition(n, areas);
    layout.validate();
    EXPECT_GE(layout.columns.size(), 2U);
}

} // namespace
} // namespace fpm::part
