/// \file column2d.hpp
/// \brief Column-based 2-D matrix partitioning (Clarke et al., ref [17]).
///
/// The application partitions the n x n block matrix over a 2-D
/// arrangement of heterogeneous devices: the matrix is cut into vertical
/// columns, each column is cut into rectangles — one per device — and the
/// area of every rectangle equals the share computed by the 1-D
/// partitioner.  Among all such arrangements the algorithm picks the one
/// minimising the total half-perimeter sum_i (w_i + h_i), which is
/// proportional to the volume of pivot-row/column communication and is
/// minimal when rectangles are "as square as possible" (the paper's
/// phrasing).
///
/// Following Beaumont et al., devices are sorted by area in non-increasing
/// order and an optimal *contiguous* assignment of that order into columns
/// is found by dynamic programming in O(p^2); the result is then rounded
/// to whole blocks with exact-cover guarantees, which column_partition()
/// checks in O(p) (ColumnLayout::validate()) before it returns.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fpm/part/integer.hpp"

namespace fpm::part {

/// A device's rectangle in block coordinates: columns [col0, col0 + w) x
/// rows [row0, row0 + h) of the n x n block matrix.
struct Rect {
    std::int64_t col0 = 0;
    std::int64_t row0 = 0;
    std::int64_t w = 0;
    std::int64_t h = 0;

    [[nodiscard]] std::int64_t area() const { return w * h; }
    [[nodiscard]] std::int64_t half_perimeter() const { return w + h; }
};

/// The complete 2-D layout.
struct ColumnLayout {
    std::int64_t n = 0;                        ///< matrix size in blocks
    std::vector<Rect> rects;                   ///< indexed by device
    std::vector<std::vector<std::size_t>> columns;  ///< device ids, top to bottom
    std::vector<std::int64_t> column_widths;

    /// Total half-perimeter of all non-empty rectangles (communication
    /// cost proxy minimised by the algorithm).
    [[nodiscard]] std::int64_t comm_cost() const;

    /// Areas actually assigned after integer rounding.
    [[nodiscard]] std::vector<std::int64_t> actual_areas() const;

    /// Verifies the exact-cover invariant, non-empty rectangles tiling the
    /// n x n matrix without overlap, in O(p) by walking the columns: they
    /// tile [0, n) left to right with widths of at least 1, each column's
    /// rectangles have its width and stack from row 0 to row n, and every
    /// non-empty rectangle sits in exactly one column.  So a layout whose
    /// `columns` or `column_widths` disagree with its rectangles fails too.
    /// Throws fpm::LogicError on violation.
    void validate() const;
};

/// Builds the layout for integer areas summing exactly to n*n.  Devices
/// with zero area receive empty rectangles.  Throws fpm::Error when the
/// areas do not sum to n*n.
ColumnLayout column_partition(std::int64_t n, std::span<const std::int64_t> areas);

} // namespace fpm::part
