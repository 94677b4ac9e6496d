/**
 * @file
 * Tests for the deterministic RNG: reproducibility, range correctness, and
 * rough distribution shape for the geometric and Zipf helpers.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hpp"

namespace cgct {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
        for (int i = 0; i < 1000; ++i)
            ASSERT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowCoversRange)
{
    Rng rng(11);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++seen[rng.nextBelow(8)];
    for (int count : seen)
        EXPECT_GT(count, 700); // ~1000 expected each.
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.nextRange(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo = saw_lo || v == -3;
        saw_hi = saw_hi || v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleUnitInterval)
{
    Rng rng(5);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, GeometricMean)
{
    Rng rng(17);
    // Mean of geometric with success probability p is 1/p.
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(Geometric(0.125)));
    EXPECT_NEAR(sum / n, 8.0, 0.5);
}

TEST(Rng, GeometricAlwaysAtLeastOne)
{
    Rng rng(19);
    const Geometric g(0.99);
    for (int i = 0; i < 1000; ++i)
        ASSERT_GE(rng.nextGeometric(g), 1u);
}

TEST(Rng, GeometricClampsKeepTheStream)
{
    // p >= 1 draws 1 without consuming the stream; p <= 0 still draws.
    Rng a(29), b(29);
    EXPECT_EQ(a.nextGeometric(Geometric(1.0)), 1u);
    EXPECT_EQ(a.nextGeometric(Geometric(3.0)), 1u);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_GE(a.nextGeometric(Geometric(0.0)), 1u);
    EXPECT_GE(a.nextGeometric(Geometric(-1.0)), 1u);
    b.next();
    b.next();
    EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ZipfInRange)
{
    Rng rng(23);
    for (int i = 0; i < 5000; ++i)
        ASSERT_LT(rng.nextZipf(100, 0.8), 100u);
}

TEST(Rng, ZipfSkewsTowardZero)
{
    Rng rng(29);
    std::uint64_t low = 0, high = 0;
    for (int i = 0; i < 20000; ++i) {
        const auto v = rng.nextZipf(1000, 0.9);
        if (v < 100)
            ++low;
        if (v >= 900)
            ++high;
    }
    // A 0.9-exponent Zipf puts far more mass on the first decile.
    EXPECT_GT(low, high * 3);
}

TEST(Rng, ZipfDegenerateN)
{
    Rng rng(31);
    EXPECT_EQ(rng.nextZipf(1, 0.9), 0u);
    EXPECT_EQ(rng.nextZipf(0, 0.9), 0u);
}

TEST(Rng, ForkDecorrelates)
{
    Rng parent(41);
    Rng child_a = parent.fork(1);
    Rng child_b = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += child_a.next() == child_b.next();
    EXPECT_LT(same, 3);
}

} // namespace
} // namespace cgct
