// Statistics collection: running summaries and time-binned series.
//
// These are the measurement primitives behind every figure we regenerate:
// Figure 3 is a TimeSeries of normal-flow goodput; the TCP cwnd-at-loss
// and event-queue occupancy reports are Summaries.
#pragma once

#include <cstddef>
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

}  // namespace fastflex
