// Tests for the FPM-based geometric partitioner (Lastovetsky & Reddy):
// conservation, balance, optimality against brute force, capacity limits,
// degenerate inputs, the exact solve against the bisection it replaced,
// a pin of the full pipeline's plans, integer plans against an exhaustive
// oracle, the rounding and capacity repair of the cpm/even baselines, and
// plans whose stages share views against the stages composed by hand.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "fpm/common/hash.hpp"
#include "fpm/core/speed_function.hpp"
#include "fpm/obs/metrics.hpp"
#include "fpm/part/fpm_partitioner.hpp"
#include "fpm/part/integer.hpp"
#include "fpm/part/request.hpp"
#include "hybrid_sets.hpp"
#include "random_model.hpp"

namespace fpm::part {
namespace {

using core::SpeedFunction;
using core::SpeedPoint;
using testsets::hybrid_fpms;
using testsets::hybrid_sets;

std::vector<SpeedFunction> two_constant_devices() {
    return {SpeedFunction::constant(10.0, "slow"),
            SpeedFunction::constant(30.0, "fast")};
}

TEST(FpmPartitioner, ConstantSpeedsReduceToProportional) {
    const auto models = two_constant_devices();
    const auto result = partition_fpm(models, 400.0);
    EXPECT_NEAR(result.partition.share[0], 100.0, 1e-6);
    EXPECT_NEAR(result.partition.share[1], 300.0, 1e-6);
    EXPECT_NEAR(result.balanced_time, 10.0, 1e-6);
}

TEST(FpmPartitioner, SharesSumToTotal) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 5.0}, {100.0, 20.0}, {500.0, 18.0}}, "a"),
        SpeedFunction({{10.0, 50.0}, {300.0, 80.0}}, "b"),
        SpeedFunction::constant(7.0, "c"),
    };
    for (double total : {1.0, 57.0, 333.3, 4096.0}) {
        const auto result = partition_fpm(models, total);
        EXPECT_NEAR(result.partition.total(), total, 1e-6 * total)
            << "total=" << total;
        for (const double share : result.partition.share) {
            EXPECT_GE(share, 0.0);
        }
    }
}

TEST(FpmPartitioner, EqualisesExecutionTimes) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 5.0}, {100.0, 20.0}, {500.0, 25.0}}, "a"),
        SpeedFunction({{10.0, 40.0}, {400.0, 90.0}}, "b"),
    };
    const auto result = partition_fpm(models, 600.0);
    const double t0 = models[0].time(result.partition.share[0]);
    const double t1 = models[1].time(result.partition.share[1]);
    EXPECT_NEAR(t0, t1, 0.05 * std::max(t0, t1));
    EXPECT_NEAR(result.balanced_time, std::max(t0, t1),
                0.05 * std::max(t0, t1));
}

TEST(FpmPartitioner, NearOptimalAgainstBruteForce) {
    // Discretised exhaustive search over all splits of 200 blocks between
    // two non-trivial devices; the geometric solution's makespan must be
    // within a hair of the discrete optimum.
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{5.0, 8.0}, {50.0, 30.0}, {200.0, 26.0}}, "cpu"),
        SpeedFunction({{5.0, 60.0}, {80.0, 90.0}, {120.0, 40.0}}, "gpu"),
    };
    const std::int64_t total = 200;

    double best = 1e300;
    for (std::int64_t x = 0; x <= total; ++x) {
        const std::vector<double> shares = {static_cast<double>(x),
                                            static_cast<double>(total - x)};
        best = std::min(best, makespan(models, shares));
    }

    const auto result = partition_fpm(models, static_cast<double>(total));
    const double achieved = makespan(models, result.partition.share);
    EXPECT_LE(achieved, best * 1.02);
}

TEST(FpmPartitioner, BoundedDeviceSaturatesAtCapacity) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 100.0}, {50.0, 100.0}}, "gpu", 60.0),  // cap 60
        SpeedFunction::constant(1.0, "cpu"),
    };
    const auto result = partition_fpm(models, 200.0);
    EXPECT_LE(result.partition.share[0], 60.0 + 1e-9);
    EXPECT_NEAR(result.partition.total(), 200.0, 1e-6);
    // The slow CPU carries the overflow even though it is 100x slower.
    EXPECT_GE(result.partition.share[1], 140.0 - 1e-6);
}

TEST(FpmPartitioner, ThrowsWhenCapacityInsufficient) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 10.0}}, "g1", 50.0),
        SpeedFunction({{10.0, 10.0}}, "g2", 30.0),
    };
    EXPECT_THROW(partition_fpm(models, 100.0), fpm::Error);
    EXPECT_NO_THROW(partition_fpm(models, 80.0));
}

TEST(FpmPartitioner, SingleDeviceTakesAll) {
    const std::vector<SpeedFunction> models = {SpeedFunction::constant(3.0)};
    const auto result = partition_fpm(models, 42.0);
    EXPECT_NEAR(result.partition.share[0], 42.0, 1e-9);
    EXPECT_NEAR(result.balanced_time, 14.0, 1e-6);
}

TEST(FpmPartitioner, ZeroTotal) {
    const auto models = two_constant_devices();
    const auto result = partition_fpm(models, 0.0);
    EXPECT_DOUBLE_EQ(result.partition.total(), 0.0);
    EXPECT_DOUBLE_EQ(result.balanced_time, 0.0);
}

TEST(FpmPartitioner, Validation) {
    EXPECT_THROW(partition_fpm({}, 10.0), fpm::Error);
    const auto models = two_constant_devices();
    EXPECT_THROW(partition_fpm(models, -5.0), fpm::Error);
}

TEST(FpmPartitioner, HandlesCliffDevices) {
    // A GPU-like device whose speed collapses past a memory limit: the
    // partitioner must not overload it (the paper's central claim).
    std::vector<SpeedPoint> gpu_points;
    for (double x = 10.0; x <= 1000.0; x += 30.0) {
        const double speed = (x <= 500.0) ? 90.0 : 25.0;
        gpu_points.push_back(SpeedPoint{x, speed});
    }
    const std::vector<SpeedFunction> models = {
        SpeedFunction(gpu_points, "gpu"),
        SpeedFunction::constant(30.0, "cpu"),
    };

    // Small problem: GPU is 3x the CPU, gets ~75 %.
    const auto small = partition_fpm(models, 400.0);
    EXPECT_GT(small.partition.share[0], 0.70 * 400.0);

    // Large problem: the balanced solution stops overloading the GPU.
    const auto large = partition_fpm(models, 1600.0);
    const double t_gpu = models[0].time(large.partition.share[0]);
    const double t_cpu = models[1].time(large.partition.share[1]);
    EXPECT_NEAR(t_gpu, t_cpu, 0.1 * std::max(t_gpu, t_cpu));
    // A CPM model built at small sizes (speed 90) would give the GPU 75 %
    // = 1200 blocks, taking 1200/25 = 48 s vs the balanced ~29 s.
    EXPECT_LT(std::max(t_gpu, t_cpu), 35.0);
}

TEST(FpmPartitioner, ManyDevicesStressAndConservation) {
    std::vector<SpeedFunction> models;
    for (int i = 0; i < 24; ++i) {
        models.push_back(
            SpeedFunction::constant(1.0 + static_cast<double>(i % 7)));
    }
    const auto result = partition_fpm(models, 10000.0);
    EXPECT_NEAR(result.partition.total(), 10000.0, 1e-3);
    // Faster devices get strictly more.
    EXPECT_GT(result.partition.share[6], result.partition.share[0]);
}

TEST(FpmPartitioner, IterationsReported) {
    const auto models = two_constant_devices();
    const auto result = partition_fpm(models, 100.0);
    EXPECT_GE(result.iterations, 1U);
    EXPECT_LE(result.iterations, 200U);
}

TEST(PartitionRequestBound, PlansUpToKMaxNAndThrowsAbove) {
    const auto models = two_constant_devices();
    const PartitionPlan plan =
        partition(PartitionRequest{models, kMaxN, Algorithm::kFpm, true});
    EXPECT_EQ(plan.blocks[0] + plan.blocks[1], kMaxN * kMaxN);
    EXPECT_EQ(plan.blocks[1], 3 * plan.blocks[0]);
    // Past kMaxN a block count may round in a double; from 3,037,000,500
    // n * n overflows int64.
    for (const std::int64_t n : {kMaxN + 1, std::int64_t{3037000500}}) {
        const PartitionRequest request{models, n, Algorithm::kFpm, true};
        EXPECT_THROW((void)partition(request), fpm::Error) << n;
    }
}

/// The noise-free node built as the paper benches build it
/// (bench_fpm_options(5200)): the models behind Table III.  Its two S5
/// and its two S6 sockets have identical models.
std::vector<SpeedFunction> paper_node() { return hybrid_fpms({}, 0.04); }

/// Little-endian bytes of one word folded into a running FNV-1a hash.
void fold(std::uint64_t& hash, std::uint64_t word) {
    char bytes[8];
    for (int i = 0; i < 8; ++i) {
        bytes[i] = static_cast<char>(word >> (8 * i));
    }
    hash = fnv1a(std::string_view(bytes, sizeof bytes), hash);
}

TEST(PartitionPin, PlansMatchTheRecordedDigest) {
    // 810 plans (n = 16..150; fpm, cpm and even; with layout) on a 6- and
    // a 24-device set.  The literal was recorded when rounding became
    // exact: fpm plans round by floor plus greedy on the envelope, cpm and
    // even by largest remainder, and every makespan reads the envelope.  A
    // new solver or rounding rule must reproduce it unless it means to
    // move plans.
    const auto sets = hybrid_sets(11, 100);
    ASSERT_EQ(sets[0].size(), 6u);
    ASSERT_EQ(sets[1].size(), 24u);
    std::uint64_t hash = kFnv1aOffset;
    for (const auto& models : sets) {
        for (std::int64_t n = 16; n <= 150; ++n) {
            for (const Algorithm algorithm :
                 {Algorithm::kFpm, Algorithm::kCpm, Algorithm::kEven}) {
                const PartitionPlan plan =
                    partition(PartitionRequest{models, n, algorithm, true});
                for (const std::int64_t blocks : plan.blocks) {
                    fold(hash, static_cast<std::uint64_t>(blocks));
                }
                for (const Rect& rect : plan.layout.rects) {
                    for (const std::int64_t v :
                         {rect.col0, rect.row0, rect.w, rect.h}) {
                        fold(hash, static_cast<std::uint64_t>(v));
                    }
                }
                fold(hash, std::bit_cast<std::uint64_t>(plan.balanced_time));
                fold(hash, std::bit_cast<std::uint64_t>(plan.makespan));
            }
        }
    }
    EXPECT_EQ(hash, 0x0722a2a2e86e79b0ULL) << "digest now 0x" << std::hex
                                           << hash;
}

// ---------------------------------------------------------------------------
// The exact solve against the bisection it replaced
// ---------------------------------------------------------------------------

namespace reference {

/// partition_fpm as it was when it bisected on T, kept verbatim but for
/// its metrics: the reference the exact solve must agree with.
FpmPartitionResult partition_fpm(std::span<const core::SpeedFunction> models,
                                 double total) {
    constexpr double kTolerance = 1e-9;
    constexpr std::size_t kMaxIterations = 200;
    FPM_CHECK(!models.empty(), "need at least one device");
    FPM_CHECK(total >= 0.0, "total workload must be non-negative");

    const std::size_t p = models.size();
    FpmPartitionResult result;
    result.partition.share.assign(p, 0.0);
    if (total == 0.0) {
        return result;
    }

    // Views of each model's monotone execution-time envelope.
    std::vector<core::MonotoneTime> envelopes;
    envelopes.reserve(p);
    double capacity = 0.0;
    for (const auto& model : models) {
        envelopes.emplace_back(model);
        capacity += envelopes.back().max_problem();
    }
    FPM_CHECK(capacity >= total,
              "combined device capacity cannot hold the requested workload");

    auto assigned_at = [&](double t) {
        double sum = 0.0;
        for (auto& envelope : envelopes) {
            sum += envelope.invert(t);
        }
        return sum;
    };

    // Bracket the balanced time T.  An upper bound: the fastest single
    // device running everything it can hold; grow geometrically until the
    // assignment covers the total.
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t i = 0; i < models.size(); ++i) {
        const double probe = std::min(total, envelopes[i].max_problem());
        if (probe > 0.0) {
            const double t = models[i].time(probe);
            if (std::isfinite(t)) {
                hi = std::max(hi, t);
            }
        }
    }
    if (hi == 0.0) {
        hi = 1.0;
    }
    std::size_t guard = 0;
    while (assigned_at(hi) < total && guard++ < 128) {
        hi *= 2.0;
    }
    FPM_CHECK(assigned_at(hi) >= total,
              "could not bracket the balanced execution time");

    // Bisection on T; sum_i x_i(T) is monotone non-decreasing.
    double assigned = 0.0;
    for (std::size_t it = 0; it < kMaxIterations; ++it) {
        const double mid = 0.5 * (lo + hi);
        assigned = assigned_at(mid);
        result.iterations = it + 1;
        if (std::fabs(assigned - total) <= kTolerance * total) {
            hi = mid;
            break;
        }
        if (assigned < total) {
            lo = mid;
        } else {
            hi = mid;
        }
    }

    result.balanced_time = hi;
    double sum = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
        result.partition.share[i] = envelopes[i].invert(hi);
        sum += result.partition.share[i];
    }

    // Normalise the residual rounding of the bisection onto unbounded
    // devices proportionally, so the shares add up to the total exactly.
    if (sum > 0.0) {
        const double scale = total / sum;
        double rescaled = 0.0;
        for (std::size_t i = 0; i < p; ++i) {
            double share = result.partition.share[i] * scale;
            share = std::min(share, envelopes[i].max_problem());
            result.partition.share[i] = share;
            rescaled += share;
        }
        // Any capacity clamping leftovers go to the first device that can
        // take them.
        double leftover = total - rescaled;
        for (std::size_t i = 0; i < p && leftover > 1e-12; ++i) {
            const double room =
                envelopes[i].max_problem() - result.partition.share[i];
            const double take = std::min(room, leftover);
            result.partition.share[i] += take;
            leftover -= take;
        }
    }

    return result;
}

} // namespace reference

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Whether two balanced times agree within 1e-8 relative.
bool close_times(double a, double b) {
    return std::fabs(a - b) <= 1e-8 * std::max(std::fabs(a), std::fabs(b));
}

/// The plan partition() makes for `n`, its FPM step run by the reference
/// bisection.
PartitionPlan reference_plan(std::span<const SpeedFunction> models,
                             std::int64_t n) {
    const auto continuous = reference::partition_fpm(
        models, static_cast<double>(n) * static_cast<double>(n));
    auto rounded = round_partition(continuous.partition, n * n, models);
    PartitionPlan plan;
    plan.balanced_time = continuous.balanced_time;
    plan.makespan =
        makespan(models, std::span<const std::int64_t>(rounded.blocks));
    plan.layout = column_partition(n, rounded.blocks);
    plan.blocks = std::move(rounded.blocks);
    return plan;
}

/// Where partition()'s fpm plan for `n` differs from reference_plan(), as
/// text: blocks, rects or makespan in any bit, or balanced_time by more
/// than 1e-8 relative.
std::string plan_mismatches(std::span<const SpeedFunction> models,
                            std::int64_t n) {
    const PartitionPlan plan =
        partition(PartitionRequest{models, n, Algorithm::kFpm, true});
    const PartitionPlan expected = reference_plan(models, n);
    std::ostringstream out;
    if (plan.blocks != expected.blocks) {
        out << " blocks";
    }
    if (!std::ranges::equal(plan.layout.rects, expected.layout.rects,
                            [](const Rect& a, const Rect& b) {
                                return a.col0 == b.col0 && a.row0 == b.row0 &&
                                       a.w == b.w && a.h == b.h;
                            })) {
        out << " rects";
    }
    if (!same_bits(plan.makespan, expected.makespan)) {
        out << " makespan";
    }
    if (!close_times(plan.balanced_time, expected.balanced_time)) {
        out.precision(17);
        out << " balanced_time " << plan.balanced_time << " vs "
            << expected.balanced_time;
    }
    return out.str();
}

TEST(ExactSolve, NoiseFamiliesPlanAsTheBisectionDid) {
    // Family 1 is PartitionPin's sets; four more noise families follow.
    for (std::uint64_t family = 1; family <= 5; ++family) {
        for (const auto& models : hybrid_sets(10 * family + 1, 100 * family)) {
            for (std::int64_t n = 16; n <= 150; ++n) {
                EXPECT_EQ(plan_mismatches(models, n), "")
                    << "family " << family << ", " << models.size()
                    << " devices, n = " << n;
            }
        }
    }
}

TEST(ExactSolve, RandomPopulationsPlanAsTheBisectionDid) {
    // test_fuzz's populations: ramps, cliffs and capacity bounds.
    for (const std::uint64_t seed : {20120924ULL, 777ULL}) {
        Rng rng(seed);
        for (int trial = 0; trial < 60; ++trial) {
            const std::size_t devices = 1 + rng.uniform_int(0, 7);
            std::vector<SpeedFunction> models;
            double capacity = 0.0;
            for (std::size_t i = 0; i < devices; ++i) {
                models.push_back(fuzz::random_model(rng, fuzz::device_name(i)));
                capacity += models.back().max_problem();
            }
            const double total =
                std::min(rng.uniform(1.0, 6000.0), 0.95 * capacity);
            const double expected =
                reference::partition_fpm(models, total).balanced_time;
            const double solved = partition_fpm(models, total).balanced_time;
            EXPECT_TRUE(close_times(solved, expected))
                << "seed " << seed << ", trial " << trial << ": " << solved
                << " vs " << expected;
            for (std::int64_t n = 1; n * n <= total; n += 1 + n / 2) {
                EXPECT_EQ(plan_mismatches(models, n), "")
                    << "seed " << seed << ", trial " << trial << ", n = " << n;
            }
        }
    }
}

TEST(ExactSolve, RootOnAFlatRunIsTheStepItself) {
    // The cliff model's envelope is flat at t = 1 from x = 10 to 49, so
    // beside a constant device of speed 10 the assigned total steps from
    // 20 to 59 at T = 1: every total in between balances at exactly 1.
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 10.0}, {49.0, 50.0}, {51.0, 5.0}}, "cliff"),
        SpeedFunction::constant(10.0, "cpu")};
    for (const double total : {21.0, 40.0, 58.0}) {
        const auto result = partition_fpm(models, total);
        EXPECT_EQ(result.balanced_time, 1.0) << total;
        EXPECT_EQ(reference::partition_fpm(models, total).balanced_time, 1.0);
        EXPECT_NEAR(result.partition.total(), total, 1e-12 * total);
    }
}

TEST(ExactSolve, CapacityExactlyTheTotalFillsEveryDevice) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 10.0}, {40.0, 25.0}}, "g1", 50.0),
        SpeedFunction({{10.0, 20.0}}, "g2", 30.0),
    };
    const auto result = partition_fpm(models, 80.0);
    EXPECT_DOUBLE_EQ(result.partition.share[0], 50.0);
    EXPECT_DOUBLE_EQ(result.partition.share[1], 30.0);
    EXPECT_EQ(result.partition.total(), 80.0);
    EXPECT_TRUE(close_times(result.balanced_time,
                            reference::partition_fpm(models, 80.0).balanced_time));
    // Both devices are full only once the later one saturates.
    const double later = std::max(core::MonotoneTime(models[0]).max_time(),
                                  core::MonotoneTime(models[1]).max_time());
    EXPECT_TRUE(close_times(result.balanced_time, later));
}

TEST(ExactSolve, OneDeviceBalancesAtItsOwnTime) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 5.0}, {100.0, 20.0}, {500.0, 18.0}}, "a")};
    core::MonotoneTime envelope(models[0]);
    for (const double total : {1.0, 57.0, 333.3, 4096.0}) {
        const auto result = partition_fpm(models, total);
        EXPECT_DOUBLE_EQ(result.partition.share[0], total);
        EXPECT_TRUE(close_times(result.balanced_time, envelope.time(total)))
            << total;
        EXPECT_TRUE(close_times(
            result.balanced_time,
            reference::partition_fpm(models, total).balanced_time));
    }
}

TEST(ExactSolve, ConstantSpeedsBalanceAtTotalOverSpeedSum) {
    const std::vector<std::vector<double>> speed_sets = {
        {3.0}, {10.0, 30.0}, {0.5, 1e3}, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}};
    for (const auto& speeds : speed_sets) {
        std::vector<SpeedFunction> models;
        double speed_sum = 0.0;
        for (const double speed : speeds) {
            models.push_back(SpeedFunction::constant(speed));
            speed_sum += speed;
        }
        for (const double total : {1e-3, 1.0, 42.0, 400.0, 1e4, 0x1p52}) {
            const double expected = total / speed_sum;
            const double solved = partition_fpm(models, total).balanced_time;
            const auto ulps =
                std::bit_cast<std::int64_t>(solved) -
                std::bit_cast<std::int64_t>(expected);
            EXPECT_LE(std::abs(ulps), 4)
                << speeds.size() << " devices, total " << total << ": "
                << solved << " vs " << expected;
        }
    }
}

TEST(ExactSolve, TotalsOfOneAndTwoToThe52Blocks) {
    for (const auto& models : hybrid_sets(11, 100)) {
        EXPECT_EQ(plan_mismatches(models, 1), "") << models.size();
        // At 2^52 blocks the bisection's 1e-9 tolerance is millions of
        // blocks, so after normalising its shares may round a block
        // differently: the plans agree to 1e-12 relative.
        const PartitionPlan plan =
            partition(PartitionRequest{models, kMaxN, Algorithm::kFpm, false});
        const PartitionPlan expected = reference_plan(models, kMaxN);
        const double total = 0x1p52;
        for (std::size_t i = 0; i < models.size(); ++i) {
            EXPECT_LE(std::abs(plan.blocks[i] - expected.blocks[i]),
                      1e-12 * total)
                << models.size() << " devices, device " << i;
        }
        EXPECT_NEAR(plan.makespan, expected.makespan, 1e-12 * expected.makespan);
        EXPECT_TRUE(close_times(plan.balanced_time, expected.balanced_time));
    }
}

TEST(ExactSolve, NonFiniteTotalsThrow) {
    const auto models = two_constant_devices();
    EXPECT_THROW(partition_fpm(models, std::numeric_limits<double>::infinity()),
                 fpm::Error);
    EXPECT_THROW(partition_fpm(models, std::numeric_limits<double>::quiet_NaN()),
                 fpm::Error);
}

// ---------------------------------------------------------------------------
// Integer plans against an exhaustive oracle, and the baselines' rounding
// ---------------------------------------------------------------------------

/// The least makespan of any plan of `total` whole blocks under the
/// envelopes, by dynamic programming over block counts: after device d,
/// best[s] is the least max envelope time of the first d devices holding
/// s blocks.  A device's time is +infinity past its capacity.
double integer_optimum(std::span<const SpeedFunction> models,
                       std::int64_t total) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const auto size = static_cast<std::size_t>(total) + 1;
    std::vector<double> best(size, kInf);
    best[0] = 0.0;
    std::vector<double> time(size);
    std::vector<double> next(size);
    for (const auto& model : models) {
        core::MonotoneTime envelope(model);
        for (std::size_t k = 0; k < size; ++k) {
            time[k] = envelope.time(static_cast<double>(k));
        }
        for (std::size_t s = 0; s < size; ++s) {
            next[s] = kInf;
            for (std::size_t k = 0; k <= s; ++k) {
                next[s] = std::min(next[s], std::max(best[s - k], time[k]));
            }
        }
        std::swap(best, next);
    }
    return best.back();
}

/// How partition()'s fpm plan for `n` misses the oracle, as text: a
/// makespan more than 1e-12 relative above the integer optimum, or one
/// that is not its blocks' makespan under the envelopes.
std::string optimum_mismatch(std::span<const SpeedFunction> models,
                             std::int64_t n) {
    const PartitionPlan plan =
        partition(PartitionRequest{models, n, Algorithm::kFpm, false});
    const double optimum = integer_optimum(models, n * n);
    std::ostringstream out;
    out.precision(17);
    if (std::fabs(plan.makespan - optimum) > 1e-12 * optimum) {
        out << " makespan " << plan.makespan << " vs optimum " << optimum
            << ", blocks";
        for (const std::int64_t blocks : plan.blocks) {
            out << ' ' << blocks;
        }
    }
    const std::span<const std::int64_t> blocks(plan.blocks);
    if (!same_bits(plan.makespan, makespan(models, blocks))) {
        out << " makespan is not the blocks' envelope makespan";
    }
    return out.str();
}

TEST(IntegerOptimum, PaperNodePlansAreOptimal) {
    const auto models = paper_node();
    ASSERT_EQ(models.size(), 6u);
    // At n = 11 the identical S6 sockets tie at 16/91/3/3/4/4 (0.0847 s):
    // moving a block off either leaves the other at 0.0847 s.  The
    // optimum, 16/93/3/3/3/3, moves one off each and takes 0.0755 s.
    for (std::int64_t n = 8; n <= 45; ++n) {
        EXPECT_EQ(optimum_mismatch(models, n), "") << "n = " << n;
    }
}

TEST(IntegerOptimum, PinnedSetPlansAreOptimal) {
    const auto sets = hybrid_sets(11, 100);
    for (std::int64_t n = 8; n <= 45; ++n) {
        EXPECT_EQ(optimum_mismatch(sets[0], n), "") << "6 devices, n = " << n;
    }
    for (std::int64_t n = 8; n <= 28; ++n) {
        EXPECT_EQ(optimum_mismatch(sets[1], n), "") << "24 devices, n = " << n;
    }
}

TEST(IntegerOptimum, RandomPopulationPlansAreOptimal) {
    // test_fuzz's populations: ramps, cliffs and capacity bounds.
    for (const std::uint64_t seed : {20120924ULL, 777ULL}) {
        Rng rng(seed);
        for (int trial = 0; trial < 60; ++trial) {
            const std::size_t devices = 1 + rng.uniform_int(0, 7);
            std::vector<SpeedFunction> models;
            double capacity = 0.0;
            for (std::size_t i = 0; i < devices; ++i) {
                models.push_back(fuzz::random_model(rng, fuzz::device_name(i)));
                capacity += models.back().max_problem();
            }
            for (const std::int64_t n : {3, 7, 12, 20, 31}) {
                if (static_cast<double>(n * n) <= capacity) {
                    EXPECT_EQ(optimum_mismatch(models, n), "")
                        << "seed " << seed << ", trial " << trial
                        << ", n = " << n;
                }
            }
        }
    }
}

TEST(Baselines, CpmAndEvenRoundTheirSharesByLargestRemainder) {
    // No pinned device is bounded, so the capacity repair moves nothing.
    for (const auto& models : hybrid_sets(11, 100)) {
        for (std::int64_t n = 16; n <= 150; ++n) {
            const double total = static_cast<double>(n * n);
            const double share = total / static_cast<double>(models.size());
            std::vector<double> speeds;
            for (const auto& model : models) {
                speeds.push_back(
                    model.speed(std::min(share, model.max_problem())));
            }
            const Partition1D cpm = partition_cpm(speeds, total);
            const Partition1D even = partition_homogeneous(models.size(), total);
            auto plan = [&](Algorithm algorithm) {
                return partition(PartitionRequest{models, n, algorithm, false})
                    .blocks;
            };
            EXPECT_EQ(plan(Algorithm::kCpm),
                      round_largest_remainder(cpm, n * n).blocks)
                << models.size() << " devices, n = " << n;
            EXPECT_EQ(plan(Algorithm::kEven),
                      round_largest_remainder(even, n * n).blocks)
                << models.size() << " devices, n = " << n;
        }
    }
}

TEST(Baselines, CapacityRepairMovesTheOverflowToTheRoomiestDevice) {
    // 16 blocks: the even split gives the 5-block GPU 8, cpm gives it 15.
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{1.0, 10.0}}, "gpu", 5.0),
        SpeedFunction::constant(1.0, "cpu"),
    };
    for (const Algorithm algorithm : {Algorithm::kCpm, Algorithm::kEven}) {
        const PartitionPlan plan =
            partition(PartitionRequest{models, 4, algorithm, true});
        EXPECT_EQ(plan.blocks, (std::vector<std::int64_t>{5, 11}))
            << to_string(algorithm);
        EXPECT_EQ(plan.makespan, 11.0) << to_string(algorithm);
    }
    // Capacities 5 + 4 cannot hold 16 blocks.
    const std::vector<SpeedFunction> tight = {
        SpeedFunction({{1.0, 10.0}}, "g1", 5.0),
        SpeedFunction({{1.0, 10.0}}, "g2", 4.0),
    };
    for (const Algorithm algorithm : {Algorithm::kCpm, Algorithm::kEven}) {
        const PartitionRequest request{tight, 4, algorithm, true};
        EXPECT_THROW((void)partition(request), fpm::Error)
            << to_string(algorithm);
    }
}

/// The one-block-at-a-time capacity repair that repair_capacity()
/// replaced, kept as its reference.
void repair_one_block_at_a_time(std::vector<std::int64_t>& blocks,
                                std::span<const SpeedFunction> models) {
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

TEST(Baselines, CapacityRepairPutsTheOverflowWhereTheOneBlockLoopDid) {
    // Up to 8 devices: unbounded, whole, fractional, or the previous
    // device's capacity again; each device's blocks below or past it.
    Rng rng(20121015);
    int repaired = 0;
    int refused = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        const std::size_t p = 1 + static_cast<std::size_t>(rng.uniform_int(0, 7));
        std::vector<SpeedFunction> models;
        std::vector<std::int64_t> blocks;
        int overflowing = 0;
        for (std::size_t i = 0; i < p; ++i) {
            const double kind = rng.uniform();
            double capacity = std::numeric_limits<double>::infinity();
            if (kind < 0.3 && i > 0) {
                capacity = models.back().max_problem();
            } else if (kind < 0.6) {
                capacity = static_cast<double>(rng.uniform_int(1, 40));
            } else if (kind < 0.9) {
                capacity = rng.uniform(0.25, 40.0);
            }
            models.push_back(
                SpeedFunction({{1.0, 1.0}}, fuzz::device_name(i), capacity));
            const double reach = std::isinf(capacity) ? 40.0 : capacity;
            blocks.push_back(rng.uniform_int(
                0, static_cast<std::int64_t>(1.8 * reach) + 2));
            overflowing += static_cast<double>(blocks.back()) > capacity;
        }
        std::vector<std::int64_t> expected = blocks;
        std::string expected_error;
        try {
            repair_one_block_at_a_time(expected, models);
        } catch (const fpm::Error& e) {
            expected_error = e.message();
        }
        std::vector<std::int64_t> actual = blocks;
        std::string actual_error;
        try {
            repair_capacity(actual, models);
        } catch (const fpm::Error& e) {
            actual_error = e.message();
        }
        ASSERT_EQ(actual_error, expected_error) << "trial " << trial;
        if (expected_error.empty()) {
            ASSERT_EQ(actual, expected) << "trial " << trial;
            repaired += overflowing > 1;
        } else {
            ++refused;
        }
    }
    // Both outcomes occur, and many repairs move several overflows.
    EXPECT_GT(repaired, 400);
    EXPECT_GT(refused, 400);
}

TEST(Baselines, CapacityRepairTakesNoStepPerOverflowBlock) {
    // At n = kMaxN the even split gives the 1000-block GPU 2^51 blocks and
    // cpm gives it more; moved one block at a time, the repair would run
    // for months.
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{1.0, 10.0}}, "gpu", 1000.0),
        SpeedFunction::constant(1.0, "cpu"),
    };
    for (const Algorithm algorithm : {Algorithm::kCpm, Algorithm::kEven}) {
        const PartitionPlan plan =
            partition(PartitionRequest{models, kMaxN, algorithm, true});
        EXPECT_EQ(plan.blocks,
                  (std::vector<std::int64_t>{1000, kMaxN * kMaxN - 1000}))
            << to_string(algorithm);
    }
}

// ---------------------------------------------------------------------------
// One set of views per plan against the public stages composed by hand
// ---------------------------------------------------------------------------

/// Where partition()'s fpm plan for `n`, whose stages share one envelope
/// view per device, differs from partition_fpm() → round_partition() →
/// column_partition() composed by hand, each building views of its own
/// (the composition the 1-D callers and the service benchmark's replay
/// run), as text: blocks, rects, balanced_time, makespan or the solve's
/// evaluations (part.fpm.iterations) in any bit.
std::string shared_view_mismatches(std::span<const SpeedFunction> models,
                                   std::int64_t n) {
    const obs::Counter& evaluations =
        obs::MetricsRegistry::global().counter("part.fpm.iterations");
    const std::uint64_t before = evaluations.value();
    const PartitionPlan plan =
        partition(PartitionRequest{models, n, Algorithm::kFpm, true});
    const std::uint64_t plan_evaluations = evaluations.value() - before;

    const auto continuous =
        partition_fpm(models, static_cast<double>(n) * static_cast<double>(n));
    const auto rounded = round_partition(continuous.partition, n * n, models);
    const ColumnLayout layout = column_partition(n, rounded.blocks);
    std::ostringstream out;
    if (plan.blocks != rounded.blocks) {
        out << " blocks";
    }
    if (!std::ranges::equal(plan.layout.rects, layout.rects,
                            [](const Rect& a, const Rect& b) {
                                return a.col0 == b.col0 && a.row0 == b.row0 &&
                                       a.w == b.w && a.h == b.h;
                            })) {
        out << " rects";
    }
    if (!same_bits(plan.balanced_time, continuous.balanced_time)) {
        out << " balanced_time";
    }
    if (!same_bits(plan.makespan, rounded.makespan)) {
        out << " makespan";
    }
    if (plan_evaluations != continuous.iterations) {
        out << " evaluations " << plan_evaluations << " vs "
            << continuous.iterations;
    }
    return out.str();
}

TEST(SharedViews, PinnedSetsPlanAsTheComposedStages) {
    for (const auto& models : hybrid_sets(11, 100)) {
        for (std::int64_t n = 16; n <= 150; ++n) {
            EXPECT_EQ(shared_view_mismatches(models, n), "")
                << models.size() << " devices, n = " << n;
        }
    }
}

TEST(SharedViews, PaperNodePlansAsTheComposedStages) {
    const auto models = paper_node();
    for (std::int64_t n = 8; n <= 80; ++n) {
        EXPECT_EQ(shared_view_mismatches(models, n), "") << "n = " << n;
    }
}

TEST(SharedViews, RandomPopulationsPlanAsTheComposedStages) {
    // test_fuzz's populations: ramps, cliffs and capacity bounds.
    for (const std::uint64_t seed : {20120924ULL, 777ULL}) {
        Rng rng(seed);
        for (int trial = 0; trial < 60; ++trial) {
            const std::size_t devices = 1 + rng.uniform_int(0, 7);
            std::vector<SpeedFunction> models;
            double capacity = 0.0;
            for (std::size_t i = 0; i < devices; ++i) {
                models.push_back(fuzz::random_model(rng, fuzz::device_name(i)));
                capacity += models.back().max_problem();
            }
            for (std::int64_t n = 1; n <= 90 &&
                                     static_cast<double>(n * n) <= capacity;
                 n += 1 + n / 3) {
                EXPECT_EQ(shared_view_mismatches(models, n), "")
                    << "seed " << seed << ", trial " << trial << ", n = " << n;
            }
        }
    }
}

} // namespace
} // namespace fpm::part
