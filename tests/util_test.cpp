// Tests for the util library: deterministic RNG, hashing, statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/hash.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/types.h"

namespace fastflex {
namespace {

TEST(TimeTest, ConversionRoundTrips) {
  EXPECT_EQ(FromSeconds(1.0), kSecond);
  EXPECT_EQ(FromSeconds(0.001), kMillisecond);
  EXPECT_DOUBLE_EQ(ToSeconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(ToMillis(kMillisecond), 1.0);
  EXPECT_EQ(FromMillis(2.5), 2 * kMillisecond + 500 * kMicrosecond);
}

TEST(AddressTest, DottedQuadRendering) {
  EXPECT_EQ(AddressToString(0x0a000001), "10.0.0.1");
  EXPECT_EQ(AddressToString(0xc0a80005), "192.168.0.5");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10'000; ++i) {
    const std::int64_t v = rng.UniformInt(2, 9);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 8u);  // all values hit
}

TEST(RngTest, BernoulliRespectsEdgeProbabilities) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng forked = a.Fork();
  Rng b(42);
  b.Fork();
  // The parent stream after forking still matches a replay.
  EXPECT_EQ(a.Next(), b.Next());
  // And the fork differs from the parent.
  Rng a2(42);
  EXPECT_NE(forked.Next(), a2.Next());
}

TEST(HashTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(1), Mix64(1));
  std::set<std::uint64_t> outs;
  for (std::uint64_t i = 0; i < 1000; ++i) outs.insert(Mix64(i));
  EXPECT_EQ(outs.size(), 1000u);
}

TEST(HashTest, HashKeySeedsAreIndependent) {
  int collisions = 0;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    if (HashKey(k, 1) % 64 == HashKey(k, 2) % 64) ++collisions;
  }
  // Two independent hashes collide mod 64 with p ~ 1/64.
  EXPECT_LT(collisions, 40);
}

TEST(HashTest, FnvDistinguishesStrings) {
  EXPECT_NE(FnvHash("parser"), FnvHash("deparser"));
  EXPECT_EQ(FnvHash("abc"), FnvHash("abc"));
}

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.Add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
  EXPECT_NEAR(s.variance(), 2.5, 1e-12);  // sample variance
}

TEST(SummaryTest, EmptySummaryIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(TimeSeriesTest, BinsAccumulateAndRate) {
  TimeSeries ts(kSecond);
  ts.Add(100 * kMillisecond, 10.0);
  ts.Add(900 * kMillisecond, 5.0);
  ts.Add(1500 * kMillisecond, 7.0);
  EXPECT_DOUBLE_EQ(ts.BinTotal(0), 15.0);
  EXPECT_DOUBLE_EQ(ts.BinTotal(1), 7.0);
  EXPECT_DOUBLE_EQ(ts.Rate(0), 15.0);
  EXPECT_DOUBLE_EQ(ts.BinTotal(5), 0.0);  // untouched bins read as zero
}

TEST(TimeSeriesTest, NegativeTimesClampToFirstBin) {
  TimeSeries ts(kSecond);
  ts.Add(-5, 3.0);
  EXPECT_DOUBLE_EQ(ts.BinTotal(0), 3.0);
}

}  // namespace
}  // namespace fastflex
