// Statistics collection: running summaries, EWMAs, time-binned series.
//
// These are the measurement primitives behind every figure we regenerate:
// Figure 3 is a TimeSeries of normal-flow goodput; link utilization and
// mode-change latency reports use Summary and Ewma.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/types.h"

namespace fastflex {

/// Streaming summary: count / mean / variance (Welford) / min / max.
class Summary {
 public:
  void Add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  std::string ToString() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Exponentially weighted moving average with a configurable time constant.
/// Used for link-load monitoring in the LFA detector: util(t) decays toward
/// the instantaneous rate with time constant tau.
class Ewma {
 public:
  explicit Ewma(double tau_seconds = 0.1) : tau_(tau_seconds) {}

  /// Folds in a new sample observed at absolute time `now`.
  void Update(double sample, SimTime now);

  /// Value decayed to `now` without adding a sample.
  double ValueAt(SimTime now) const;

  double value() const { return value_; }
  bool has_value() const { return has_value_; }

 private:
  double tau_;
  double value_ = 0.0;
  SimTime last_ = 0;
  bool has_value_ = false;
};

/// Accumulates a quantity into fixed-width time bins; Rate() converts a bin
/// to per-second units.  This produces the x/y series for Figure 3.
class TimeSeries {
 public:
  explicit TimeSeries(SimTime bin_width = kSecond) : bin_width_(bin_width) {}

  void Add(SimTime t, double amount);

  /// Number of bins touched so far (bins are zero-filled up to the last).
  std::size_t NumBins() const { return bins_.size(); }

  /// Start time of bin i.
  SimTime BinStart(std::size_t i) const { return static_cast<SimTime>(i) * bin_width_; }

  /// Total accumulated in bin i (0 if untouched).
  double BinTotal(std::size_t i) const;

  /// Per-second rate for bin i.
  double Rate(std::size_t i) const;

  SimTime bin_width() const { return bin_width_; }

 private:
  SimTime bin_width_;
  std::vector<double> bins_;
};

/// Simple fixed-bucket histogram over [lo, hi); out-of-range values clamp to
/// the edge buckets.  Used for latency distributions in benches.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void Add(double x);
  double Percentile(double p) const;  // p in [0,100]
  std::size_t count() const { return count_; }

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t num_buckets() const { return buckets_.size(); }
  std::uint64_t bucket_count(std::size_t i) const {
    return i < buckets_.size() ? buckets_[i] : 0;
  }

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> buckets_;
  std::size_t count_ = 0;
};

}  // namespace fastflex
