// Unit tests for fpm::measure: statistics, Student-t, reliability loop.
#include <gtest/gtest.h>

#include <cmath>

#include "fpm/common/error.hpp"
#include "fpm/common/rng.hpp"
#include "fpm/measure/reliable.hpp"
#include "fpm/measure/stats.hpp"
#include "fpm/measure/timer.hpp"

namespace fpm::measure {
namespace {

TEST(RunningStats, MatchesClosedFormMoments) {
    RunningStats stats;
    const double values[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    for (const double v : values) {
        stats.add(v);
    }
    EXPECT_EQ(stats.count(), 8U);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    // Sample variance with n-1 denominator: sum of squared devs = 32.
    EXPECT_DOUBLE_EQ(stats.variance(), 32.0 / 7.0);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, SingleValueHasZeroVariance) {
    RunningStats stats;
    stats.add(3.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
    EXPECT_DOUBLE_EQ(stats.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(stats.summary().ci95_half, 0.0);
}

TEST(RunningStats, ClearResets) {
    RunningStats stats;
    stats.add(1.0);
    stats.add(2.0);
    stats.clear();
    EXPECT_EQ(stats.count(), 0U);
    EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
}

TEST(RunningStats, NumericallyStableForLargeOffsets) {
    RunningStats stats;
    const double offset = 1e12;
    for (int i = 0; i < 100; ++i) {
        stats.add(offset + (i % 2 == 0 ? 1.0 : -1.0));
    }
    EXPECT_NEAR(stats.mean(), offset, 1e-3);
    EXPECT_NEAR(stats.variance(), 100.0 / 99.0, 1e-6);
}

TEST(StudentT, KnownCriticalValues) {
    EXPECT_DOUBLE_EQ(student_t_975(1), 12.706);
    EXPECT_DOUBLE_EQ(student_t_975(10), 2.228);
    EXPECT_DOUBLE_EQ(student_t_975(30), 2.042);
    EXPECT_DOUBLE_EQ(student_t_975(1000), 1.960);
    EXPECT_DOUBLE_EQ(student_t_975(0), 0.0);
}

TEST(StudentT, MonotoneDecreasingInDf) {
    double previous = student_t_975(1);
    for (std::size_t df = 2; df <= 200; ++df) {
        const double current = student_t_975(df);
        EXPECT_LE(current, previous + 1e-12) << "df=" << df;
        previous = current;
    }
}

TEST(Summary, RelativeError) {
    RunningStats stats;
    stats.add(10.0);
    stats.add(10.0);
    const Summary s = stats.summary();
    EXPECT_DOUBLE_EQ(s.relative_error(), 0.0);  // zero stddev

    RunningStats noisy;
    noisy.add(9.0);
    noisy.add(11.0);
    EXPECT_GT(noisy.summary().relative_error(), 0.0);
}

TEST(Reliable, ConstantSampleConvergesAtMinRepetitions) {
    std::size_t calls = 0;
    const auto result = measure_until_reliable([&]() {
        ++calls;
        return 0.5;
    });
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(calls, 3U);  // default min_repetitions
    EXPECT_DOUBLE_EQ(result.summary.mean, 0.5);
}

TEST(Reliable, NoisySampleNeedsMoreRepetitions) {
    Rng rng(5);
    ReliabilityOptions options;
    options.target_relative_error = 0.02;
    options.max_repetitions = 200;
    std::size_t calls = 0;
    const auto result = measure_until_reliable(
        [&]() {
            ++calls;
            return rng.lognormal(0.0, 0.08);
        },
        options);
    EXPECT_TRUE(result.converged);
    EXPECT_GT(calls, 3U);
    EXPECT_LE(result.summary.relative_error(), 0.02);
}

TEST(Reliable, GivesUpAtMaxRepetitions) {
    Rng rng(6);
    ReliabilityOptions options;
    options.target_relative_error = 1e-9;  // unreachable with noise
    options.max_repetitions = 10;
    std::size_t calls = 0;
    const auto result = measure_until_reliable(
        [&]() {
            ++calls;
            return rng.lognormal(0.0, 0.3);
        },
        options);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(calls, 10U);
    EXPECT_EQ(result.summary.count, 10U);
}

TEST(Reliable, SingleRepetitionPolicy) {
    ReliabilityOptions options;
    options.min_repetitions = 1;
    options.max_repetitions = 1;
    std::size_t calls = 0;
    const auto result = measure_until_reliable(
        [&]() {
            ++calls;
            return 1.0;
        },
        options);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(calls, 1U);
}

TEST(Reliable, RejectsNonPositiveTiming) {
    EXPECT_THROW(measure_until_reliable([]() { return 0.0; }), fpm::Error);
    EXPECT_THROW(measure_until_reliable([]() { return -1.0; }), fpm::Error);
}

TEST(Reliable, RejectsBadOptions) {
    ReliabilityOptions options;
    options.min_repetitions = 0;
    EXPECT_THROW(measure_until_reliable([]() { return 1.0; }, options),
                 fpm::Error);
    options = {};
    options.max_repetitions = 1;
    options.min_repetitions = 5;
    EXPECT_THROW(measure_until_reliable([]() { return 1.0; }, options),
                 fpm::Error);
    options = {};
    options.target_relative_error = 0.0;
    EXPECT_THROW(measure_until_reliable([]() { return 1.0; }, options),
                 fpm::Error);
}

TEST(Timer, MeasuresElapsedTime) {
    WallTimer timer;
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) {
        sink = sink + std::sqrt(static_cast<double>(i));
    }
    EXPECT_GT(timer.elapsed(), 0.0);
    (void)sink;
}

TEST(Timer, ScopedTimerAccumulates) {
    double total = 0.0;
    {
        ScopedTimer scoped(total);
        volatile int sink = 0;
        for (int i = 0; i < 1000; ++i) {
            sink = sink + i;
        }
        (void)sink;
    }
    EXPECT_GT(total, 0.0);
    const double first = total;
    {
        ScopedTimer scoped(total);
    }
    EXPECT_GE(total, first);
}

} // namespace
} // namespace fpm::measure
