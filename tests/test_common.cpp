// Unit tests for fpm::common: error handling, hashing, RNG, formatting,
// math.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "fpm/common/error.hpp"
#include "fpm/common/format.hpp"
#include "fpm/common/hash.hpp"
#include "fpm/common/math.hpp"
#include "fpm/common/rng.hpp"

namespace fpm {
namespace {

TEST(Error, CheckThrowsWithMessageAndLocation) {
    try {
        FPM_CHECK(1 == 2, "one is not two");
        FAIL() << "expected fpm::Error";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("one is not two"), std::string::npos);
        EXPECT_NE(what.find("1 == 2"), std::string::npos);
        EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
        EXPECT_EQ(e.message(), "one is not two");  // what() without them
    }
}

TEST(Error, CheckPassesSilently) {
    EXPECT_NO_THROW(FPM_CHECK(2 + 2 == 4, "math works"));
}

TEST(Error, AssertThrowsLogicError) {
    EXPECT_THROW(FPM_ASSERT(false), LogicError);
    EXPECT_NO_THROW(FPM_ASSERT(true));
}

TEST(Hash, Fnv1aMatchesPublishedVectors) {
    // The reference implementation's 64-bit vectors, from its basis.
    constexpr std::uint64_t kPublishedBasis = 14695981039346656037ULL;
    EXPECT_EQ(fnv1a("", kPublishedBasis), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a("a", kPublishedBasis), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a("foobar", kPublishedBasis), 0x85944171f73967e8ULL);
    // fpmpart's own basis, which persisted fingerprints depend on.
    EXPECT_EQ(fnv1a(""), 0x14650fb0739d0383ULL);
    EXPECT_EQ(fnv1a("a"), 0x44bd8ad473cd9906ULL);
    // Hashing in pieces continues one hash.
    EXPECT_EQ(fnv1a("bar", fnv1a("foo")), fnv1a("foobar"));
}

TEST(Hash, Splitmix64MatchesReference) {
    // The first output of the reference splitmix64 seeded with 0.
    std::uint64_t state = 0;
    EXPECT_EQ(splitmix64(state), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(state, 0x9e3779b97f4a7c15ULL);
    EXPECT_EQ(mix64(0), 0xe220a8397b1dcdafULL);
}

TEST(Rng, DeterministicForSameSeed) {
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a(), b());
    }
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a() == b()) {
            ++same;
        }
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds) {
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntInclusiveBoundsAndCoverage) {
    Rng rng(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniform_int(2, 6);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 6);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5U);  // all values hit
    EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
    Rng rng(13);
    double sum = 0.0;
    double sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal();
        sum += v;
        sum2 += v * v;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.03);
    EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, LognormalIsPositive) {
    Rng rng(17);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
    }
}

TEST(Rng, SplitProducesIndependentStream) {
    Rng parent(21);
    Rng child = parent.split();
    // Streams should not be identical.
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (parent() == child()) {
            ++same;
        }
    }
    EXPECT_LT(same, 2);
}

TEST(Format, HumanBytes) {
    EXPECT_EQ(human_bytes(512), "512 B");
    EXPECT_EQ(human_bytes(2048), "2.00 KiB");
    EXPECT_EQ(human_bytes(3 * 1024ULL * 1024ULL), "3.00 MiB");
    EXPECT_EQ(human_bytes(2ULL * 1024 * 1024 * 1024), "2.00 GiB");
}

TEST(Format, FixedAndGflopsAndSeconds) {
    EXPECT_EQ(fixed(3.14159, 2), "3.14");
    EXPECT_EQ(fixed(2.0, 0), "2");
    EXPECT_EQ(gflops(951.23), "951.2 GF/s");
    EXPECT_EQ(seconds(0.5e-4), "50.0 us");
    EXPECT_EQ(seconds(0.25), "250.00 ms");
    EXPECT_EQ(seconds(2.5), "2.50 s");
}

TEST(Format, Padding) {
    EXPECT_EQ(pad_left("ab", 5), "   ab");
    EXPECT_EQ(pad_right("ab", 5), "ab   ");
    EXPECT_EQ(pad_left("abcdef", 3), "abcdef");
}

TEST(Math, CeilDivAndRounding) {
    EXPECT_EQ(ceil_div(10, 3), 4);
    EXPECT_EQ(ceil_div(9, 3), 3);
    EXPECT_EQ(round_up(10, 4), 12);
    EXPECT_EQ(round_up(12, 4), 12);
    EXPECT_EQ(round_down(10, 4), 8);
    EXPECT_EQ(round_down(12, 4), 12);
}

TEST(Math, AlmostEqual) {
    EXPECT_TRUE(almost_equal(1.0, 1.0 + 1e-12));
    EXPECT_FALSE(almost_equal(1.0, 1.001));
    EXPECT_TRUE(almost_equal(0.0, 1e-15));
}

TEST(Math, GemmUpdateFlops) {
    // One block of size b costs 2*b^3 flops.
    EXPECT_DOUBLE_EQ(gemm_update_flops(1.0, 10.0), 2000.0);
    EXPECT_DOUBLE_EQ(gemm_update_flops(3.0, 2.0), 48.0);
}

} // namespace
} // namespace fpm
