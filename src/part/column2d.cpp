#include "fpm/part/column2d.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "fpm/common/error.hpp"

namespace fpm::part {

std::int64_t ColumnLayout::comm_cost() const {
    std::int64_t cost = 0;
    for (const auto& rect : rects) {
        if (rect.area() > 0) {
            cost += rect.half_perimeter();
        }
    }
    return cost;
}

std::vector<std::int64_t> ColumnLayout::actual_areas() const {
    std::vector<std::int64_t> areas;
    areas.reserve(rects.size());
    for (const auto& rect : rects) {
        areas.push_back(rect.area());
    }
    return areas;
}

void ColumnLayout::validate() const {
    // The columns tile [0, n) left to right; each column's rectangles span
    // its width and stack from row 0 to row n.  Every rectangle listed is
    // non-empty and sits where the walk reaches it, so no two entries name
    // one device, and as many are listed as there are non-empty
    // rectangles: each sits in exactly one column, and together they tile
    // the n x n matrix without overlap.
    FPM_ASSERT(columns.size() == column_widths.size());
    std::size_t listed = 0;
    std::int64_t col0 = 0;
    for (std::size_t c = 0; c < columns.size(); ++c) {
        const std::int64_t width = column_widths[c];
        FPM_ASSERT(width >= 1 && width <= n - col0);
        std::int64_t row0 = 0;
        for (const std::size_t device : columns[c]) {
            FPM_ASSERT(device < rects.size());
            const Rect& rect = rects[device];
            FPM_ASSERT(rect.col0 == col0 && rect.w == width);
            FPM_ASSERT(rect.row0 == row0 && rect.h >= 1 && rect.h <= n - row0);
            row0 += rect.h;
        }
        FPM_ASSERT(row0 == n);
        listed += columns[c].size();
        col0 += width;
    }
    FPM_ASSERT(col0 == n);
    std::size_t non_empty = 0;
    for (const Rect& rect : rects) {
        FPM_ASSERT(rect.w >= 0 && rect.h >= 0);
        if (rect.w > 0 && rect.h > 0) {
            ++non_empty;
        }
    }
    FPM_ASSERT(listed == non_empty);
}

namespace {

/// Largest-remainder split of `total` into `parts` proportional to
/// weights; every positive-weight part gets at least `minimum` (stolen
/// from the largest parts), provided total >= minimum * positive_weights.
/// `remainders` is scratch, so a caller splitting many times reuses both.
void proportional_split(std::span<const double> weights, std::int64_t total,
                        std::int64_t minimum, std::vector<std::int64_t>& parts,
                        std::vector<std::pair<double, std::size_t>>& remainders) {
    const double weight_sum = std::accumulate(weights.begin(), weights.end(), 0.0);
    FPM_CHECK(weight_sum > 0.0, "proportional split needs positive weight");

    const std::size_t p = weights.size();
    parts.assign(p, 0);
    remainders.clear();
    std::int64_t assigned = 0;
    for (std::size_t i = 0; i < p; ++i) {
        const double exact =
            static_cast<double>(total) * weights[i] / weight_sum;
        parts[i] = static_cast<std::int64_t>(std::floor(exact));
        assigned += parts[i];
        remainders.emplace_back(exact - std::floor(exact), i);
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (std::int64_t k = 0; k < total - assigned; ++k) {
        parts[remainders[static_cast<std::size_t>(k)].second] += 1;
    }

    // Enforce the minimum for positive weights.
    for (std::size_t i = 0; i < p; ++i) {
        while (weights[i] > 0.0 && parts[i] < minimum) {
            std::size_t donor = p;
            std::int64_t donor_size = minimum;
            for (std::size_t j = 0; j < p; ++j) {
                if (j != i && parts[j] > donor_size) {
                    donor_size = parts[j];
                    donor = j;
                }
            }
            FPM_CHECK(donor < p, "cannot satisfy the minimum part size");
            parts[donor] -= 1;
            parts[i] += 1;
        }
    }
}

} // namespace

ColumnLayout column_partition(std::int64_t n, std::span<const std::int64_t> areas) {
    FPM_CHECK(n >= 1, "matrix size must be positive");
    FPM_CHECK(!areas.empty(), "need at least one device");
    std::int64_t total = 0;
    for (const auto a : areas) {
        FPM_CHECK(a >= 0, "areas must be non-negative");
        total += a;
    }
    FPM_CHECK(total == n * n, "areas must sum exactly to n*n");

    ColumnLayout layout;
    layout.n = n;
    layout.rects.assign(areas.size(), Rect{});

    // Active devices, sorted by area in non-increasing order (Beaumont's
    // contiguity property holds for this order).
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < areas.size(); ++i) {
        if (areas[i] > 0) {
            order.push_back(i);
        }
    }
    FPM_CHECK(!order.empty(), "all areas are zero");
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return areas[a] > areas[b];
    });

    const std::size_t m = order.size();
    const double nf = static_cast<double>(n);

    // Prefix sums of sorted areas for O(1) segment sums.
    std::vector<double> prefix(m + 1, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
        prefix[i + 1] = prefix[i] + static_cast<double>(areas[order[i]]);
    }

    // DP over suffixes: best[i] = minimal half-perimeter cost of laying
    // out sorted devices i..m-1; a column of devices [i, j) of summed area
    // S has width S/n and costs (j - i) * S / n (widths) + n (heights).
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> best(m + 1, kInf);
    std::vector<std::size_t> next(m + 1, m);
    best[m] = 0.0;
    for (std::size_t i = m; i-- > 0;) {
        for (std::size_t j = i + 1; j <= m; ++j) {
            if (static_cast<std::int64_t>(j - i) > n) {
                break;  // a column cannot host more devices than rows
            }
            const double width = (prefix[j] - prefix[i]) / nf;
            const double cost =
                static_cast<double>(j - i) * width + nf + best[j];
            if (cost < best[i]) {
                best[i] = cost;
                next[i] = j;
            }
        }
    }
    FPM_CHECK(std::isfinite(best[0]),
              "no feasible column arrangement (more devices than blocks?)");

    // Recover the column segments.
    std::vector<std::pair<std::size_t, std::size_t>> segments;
    for (std::size_t i = 0; i < m; i = next[i]) {
        segments.emplace_back(i, next[i]);
    }

    // Integer column widths proportional to column areas.  Every split
    // reuses the same buffers.
    std::vector<double> weights;
    std::vector<std::int64_t> heights;
    std::vector<std::pair<double, std::size_t>> remainders;
    weights.reserve(m);
    for (const auto& [b, e] : segments) {
        weights.push_back(prefix[e] - prefix[b]);
    }
    proportional_split(weights, n, /*minimum=*/1, layout.column_widths,
                       remainders);

    // Lay out each column: heights proportional to device areas.
    layout.columns.reserve(segments.size());
    std::int64_t col0 = 0;
    for (std::size_t c = 0; c < segments.size(); ++c) {
        const auto [b, e] = segments[c];
        const std::int64_t width = layout.column_widths[c];

        weights.clear();
        for (std::size_t k = b; k < e; ++k) {
            weights.push_back(static_cast<double>(areas[order[k]]));
        }
        proportional_split(weights, n, /*minimum=*/1, heights, remainders);

        std::int64_t row0 = 0;
        for (std::size_t k = b; k < e; ++k) {
            Rect& rect = layout.rects[order[k]];
            rect.col0 = col0;
            rect.row0 = row0;
            rect.w = width;
            rect.h = heights[k - b];
            row0 += rect.h;
        }
        layout.columns.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(b),
                                    order.begin() + static_cast<std::ptrdiff_t>(e));
        col0 += width;
    }

    // Checks, among the rest, that each column's heights and the widths
    // add up to n.
    layout.validate();
    return layout;
}

} // namespace fpm::part
