// Tests for the GEMM substrate: blocked/packed kernel vs the naive oracle
// across shapes, views, accumulation semantics and multithreading.
#include <gtest/gtest.h>

#include <tuple>

#include "fpm/blas/gemm.hpp"
#include "fpm/blas/matrix.hpp"
#include "fpm/common/rng.hpp"

namespace fpm::blas {
namespace {

template <typename T>
Matrix<T> random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
    Matrix<T> m(rows, cols);
    Rng rng(seed);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            m(r, c) = static_cast<T>(rng.uniform(-1.0, 1.0));
        }
    }
    return m;
}

TEST(Matrix, StorageAndIndexing) {
    Matrix<float> m(3, 4, 1.5F);
    EXPECT_EQ(m.rows(), 3U);
    EXPECT_EQ(m.cols(), 4U);
    EXPECT_EQ(m.size(), 12U);
    EXPECT_FLOAT_EQ(m(2, 3), 1.5F);
    m(1, 2) = -2.0F;
    EXPECT_FLOAT_EQ(m(1, 2), -2.0F);
}

TEST(Matrix, ViewsShareStorage) {
    Matrix<double> m(4, 4, 0.0);
    auto view = m.view();
    view(2, 2) = 7.0;
    EXPECT_DOUBLE_EQ(m(2, 2), 7.0);
}

TEST(Matrix, BlockViewAddressesSubrectangle) {
    Matrix<int> m(4, 6, 0);
    for (std::size_t r = 0; r < 4; ++r) {
        for (std::size_t c = 0; c < 6; ++c) {
            m(r, c) = static_cast<int>(10 * r + c);
        }
    }
    auto block = m.block(1, 2, 2, 3);
    EXPECT_EQ(block.rows(), 2U);
    EXPECT_EQ(block.cols(), 3U);
    EXPECT_EQ(block(0, 0), 12);
    EXPECT_EQ(block(1, 2), 24);
    block(0, 0) = -1;
    EXPECT_EQ(m(1, 2), -1);
}

TEST(Matrix, BlockOutOfRangeThrows) {
    Matrix<float> m(3, 3);
    EXPECT_THROW((void)m.block(1, 1, 3, 1), fpm::Error);
    EXPECT_THROW((void)m.block(0, 2, 1, 2), fpm::Error);
}

TEST(Matrix, MaxAbsDiff) {
    Matrix<float> a(2, 2, 1.0F);
    Matrix<float> b(2, 2, 1.0F);
    b(1, 1) = 1.5F;
    EXPECT_FLOAT_EQ(static_cast<float>(max_abs_diff<float>(a.view(), b.view())),
                    0.5F);
    Matrix<float> c(2, 3);
    EXPECT_THROW(max_abs_diff<float>(a.view(), c.view()), fpm::Error);
}

TEST(Gemm, ShapeMismatchThrows) {
    Matrix<float> a(2, 3);
    Matrix<float> b(4, 2);  // inner dim mismatch
    Matrix<float> c(2, 2);
    EXPECT_THROW(gemm<float>(a.view(), b.view(), c.view()), fpm::Error);
}

TEST(Gemm, TinyKnownProduct) {
    Matrix<double> a(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 3;
    a(1, 1) = 4;
    Matrix<double> b(2, 2);
    b(0, 0) = 5;
    b(0, 1) = 6;
    b(1, 0) = 7;
    b(1, 1) = 8;
    Matrix<double> c(2, 2, 0.0);
    gemm<double>(a.view(), b.view(), c.view());
    EXPECT_DOUBLE_EQ(c(0, 0), 19);
    EXPECT_DOUBLE_EQ(c(0, 1), 22);
    EXPECT_DOUBLE_EQ(c(1, 0), 43);
    EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Gemm, AccumulatesIntoC) {
    Matrix<double> a = random_matrix<double>(5, 4, 1);
    Matrix<double> b = random_matrix<double>(4, 6, 2);
    Matrix<double> c(5, 6, 2.0);
    Matrix<double> expected(5, 6, 2.0);
    gemm_naive<double>(a.view(), b.view(), expected.view());
    gemm<double>(a.view(), b.view(), c.view());
    EXPECT_LT(max_abs_diff<double>(c.view(), expected.view()), 1e-12);
}

TEST(Gemm, AlphaScaling) {
    Matrix<double> a = random_matrix<double>(3, 3, 3);
    Matrix<double> b = random_matrix<double>(3, 3, 4);
    Matrix<double> c1(3, 3, 0.0);
    Matrix<double> c2(3, 3, 0.0);
    gemm_naive<double>(a.view(), b.view(), c1.view(), 2.5);
    gemm<double>(a.view(), b.view(), c2.view(), 2.5);
    EXPECT_LT(max_abs_diff<double>(c1.view(), c2.view()), 1e-12);
}

// Property sweep: the blocked kernel must agree with the oracle across
// shapes covering all fringe combinations of the micro-tile (4x8) and the
// packing panels.
using GemmShape = std::tuple<int, int, int>;

class GemmShapes : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmShapes, BlockedMatchesNaive) {
    const auto [m, n, k] = GetParam();
    auto a = random_matrix<float>(m, k, 100 + m);
    auto b = random_matrix<float>(k, n, 200 + n);
    Matrix<float> c(m, n, 0.5F);
    Matrix<float> expected(m, n, 0.5F);
    gemm_naive<float>(a.view(), b.view(), expected.view());
    gemm<float>(a.view(), b.view(), c.view());
    EXPECT_LT(max_abs_diff<float>(c.view(), expected.view()),
              1e-4 * static_cast<double>(k));
}

TEST_P(GemmShapes, MultithreadMatchesSingle) {
    const auto [m, n, k] = GetParam();
    auto a = random_matrix<float>(m, k, 300 + m);
    auto b = random_matrix<float>(k, n, 400 + n);
    Matrix<float> c1(m, n, 0.0F);
    Matrix<float> c4(m, n, 0.0F);
    gemm<float>(a.view(), b.view(), c1.view());
    gemm_multithread<float>(a.view(), b.view(), c4.view(), 4);
    EXPECT_LT(max_abs_diff<float>(c1.view(), c4.view()), 1e-4 * k);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{4, 8, 16},
                      GemmShape{5, 9, 17},   // fringe on every dimension
                      GemmShape{3, 7, 1},    // depth-1
                      GemmShape{1, 64, 32},  // single row
                      GemmShape{64, 1, 32},  // single column
                      GemmShape{33, 65, 67}, GemmShape{130, 140, 70},
                      GemmShape{129, 513, 257}));  // crosses MC/NC/KC panels

TEST(Gemm, SubviewOperandsWork) {
    // Multiply using non-contiguous views carved from larger matrices.
    auto big_a = random_matrix<float>(20, 20, 5);
    auto big_b = random_matrix<float>(20, 20, 6);
    Matrix<float> big_c(20, 20, 0.0F);
    auto a = big_a.view().block(2, 3, 8, 10);
    auto b = big_b.view().block(1, 4, 10, 6);
    auto c = big_c.view().block(5, 5, 8, 6);

    Matrix<float> expected(8, 6, 0.0F);
    gemm_naive<float>(ConstMatrixView<float>(a), ConstMatrixView<float>(b),
                      expected.view());
    gemm<float>(ConstMatrixView<float>(a), ConstMatrixView<float>(b), c);
    EXPECT_LT(max_abs_diff<float>(ConstMatrixView<float>(c), expected.view()),
              1e-3);
}

TEST(Gemm, MultithreadMoreThreadsThanRows) {
    auto a = random_matrix<float>(2, 16, 7);
    auto b = random_matrix<float>(16, 8, 8);
    Matrix<float> c(2, 8, 0.0F);
    Matrix<float> expected(2, 8, 0.0F);
    gemm_naive<float>(a.view(), b.view(), expected.view());
    gemm_multithread<float>(a.view(), b.view(), c.view(), 16);
    EXPECT_LT(max_abs_diff<float>(c.view(), expected.view()), 1e-4);
}

TEST(Gemm, ZeroThreadsRejected) {
    Matrix<float> a(2, 2);
    Matrix<float> b(2, 2);
    Matrix<float> c(2, 2);
    EXPECT_THROW(gemm_multithread<float>(a.view(), b.view(), c.view(), 0),
                 fpm::Error);
}

TEST(Gemm, FlopCount) {
    EXPECT_DOUBLE_EQ(gemm_flops(2, 3, 4), 48.0);
}

} // namespace
} // namespace fpm::blas
