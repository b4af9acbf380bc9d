// Property tests for the measurement primitives in util/stats.h, which
// every telemetry artifact and regenerated figure is built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"

namespace fastflex {
namespace {

// ---- Summary: Welford must agree with the naive two-pass formulas ----

TEST(SummaryProperty, WelfordMatchesTwoPass) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.Next() % 1000;
    // Mix scales so catastrophic cancellation would show up in a naive
    // sum-of-squares implementation.
    const double offset = rng.Uniform(-1e6, 1e6);
    const double spread = rng.Uniform(1e-3, 1e3);

    std::vector<double> xs(n);
    Summary s;
    for (auto& x : xs) {
      x = offset + rng.Uniform(-spread, spread);
      s.Add(x);
    }

    double mean = 0.0;
    for (double x : xs) mean += x;
    mean /= static_cast<double>(n);
    double m2 = 0.0;
    for (double x : xs) m2 += (x - mean) * (x - mean);
    const double variance = n > 1 ? m2 / static_cast<double>(n - 1) : 0.0;

    ASSERT_EQ(s.count(), n);
    EXPECT_NEAR(s.mean(), mean, 1e-9 * std::max(1.0, std::abs(mean)));
    EXPECT_NEAR(s.variance(), variance, 1e-6 * std::max(1.0, variance));
    EXPECT_DOUBLE_EQ(s.min(), *std::min_element(xs.begin(), xs.end()));
    EXPECT_DOUBLE_EQ(s.max(), *std::max_element(xs.begin(), xs.end()));
  }
}

TEST(SummaryProperty, SingleSampleHasZeroVariance) {
  Summary s;
  s.Add(7.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 7.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

// ---- TimeSeries: zero-filled bins, sum-preserving ----

TEST(TimeSeriesProperty, ZeroFilledAndSumPreserving) {
  Rng rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    const SimTime width = static_cast<SimTime>(1 + rng.Next() % kSecond);
    TimeSeries ts(width);
    double total = 0.0;
    SimTime max_t = 0;
    const std::size_t n = 1 + rng.Next() % 2000;
    for (std::size_t i = 0; i < n; ++i) {
      const SimTime t = static_cast<SimTime>(rng.Next() % (100 * kSecond));
      const double amount = rng.Uniform(0.0, 10.0);
      ts.Add(t, amount);
      total += amount;
      max_t = std::max(max_t, t);
    }

    // Bins cover everything up to the last touched time, zero-filled.
    EXPECT_EQ(ts.NumBins(), static_cast<std::size_t>(max_t / width) + 1);
    double binned = 0.0;
    for (std::size_t i = 0; i < ts.NumBins(); ++i) {
      binned += ts.BinTotal(i);
      EXPECT_EQ(ts.BinStart(i), static_cast<SimTime>(i) * width);
    }
    EXPECT_NEAR(binned, total, 1e-9 * std::max(1.0, total));

    // Untouched bins read as zero and Rate converts per-second.
    EXPECT_DOUBLE_EQ(ts.BinTotal(ts.NumBins() + 5), 0.0);
  }
}

TEST(TimeSeriesProperty, RateIsPerSecond) {
  TimeSeries ts(500 * kMillisecond);
  ts.Add(0, 10.0);  // 10 units in a half-second bin -> 20 units/s
  EXPECT_DOUBLE_EQ(ts.Rate(0), 20.0);
}

}  // namespace
}  // namespace fastflex
