// Metrics registry: named counters, gauges, and the measurement primitives
// from util/stats.h (Summary, TimeSeries), looked up by hierarchical
// dot-separated names ("link.3.dropped_packets").
//
// Lookup is a map walk, so hot paths resolve their metrics once (at
// attach time) and keep the returned reference: references handed out by
// the registry stay valid for the registry's lifetime (node-based maps).
// Iteration is in lexicographic name order, which together with the
// deterministic simulator makes exported artifacts bit-identical across
// replays of the same seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "util/stats.h"
#include "util/types.h"

namespace fastflex::telemetry {

/// Monotonically increasing event count.  Set() exists only so harvest
/// passes can mirror counters kept elsewhere (e.g. LinkRuntime) into the
/// registry at export time.
class Counter {
 public:
  void Inc(std::uint64_t delta = 1) { value_ += delta; }
  void Set(std::uint64_t v) { value_ = v; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time scalar (utilization, occupancy, a result figure).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Get-or-create by name.  GetSeries' bin width applies only on first
  /// creation.
  Counter& GetCounter(const std::string& name) { return counters_[name]; }
  Gauge& GetGauge(const std::string& name) { return gauges_[name]; }
  Summary& GetSummary(const std::string& name) { return summaries_[name]; }
  TimeSeries& GetSeries(const std::string& name, SimTime bin_width = kSecond) {
    return series_.try_emplace(name, bin_width).first->second;
  }

  // Sorted views for exporters.
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Summary>& summaries() const { return summaries_; }
  const std::map<std::string, TimeSeries>& series() const { return series_; }

  std::size_t size() const {
    return counters_.size() + gauges_.size() + summaries_.size() + series_.size();
  }

  bool Has(const std::string& name) const {
    return counters_.contains(name) || gauges_.contains(name) ||
           summaries_.contains(name) || series_.contains(name);
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Summary> summaries_;
  std::map<std::string, TimeSeries> series_;
};

namespace metrics_internal {
inline void AppendPiece(std::string& out, const std::string& piece) { out += piece; }
inline void AppendPiece(std::string& out, const char* piece) { out += piece; }
template <typename T>
  requires std::is_arithmetic_v<T>
inline void AppendPiece(std::string& out, T piece) {
  out += std::to_string(piece);
}
}  // namespace metrics_internal

/// Builds a hierarchical metric name: Join("link", 3, "tx") == "link.3.tx".
template <typename... Pieces>
std::string Join(const Pieces&... pieces) {
  std::string out;
  std::size_t i = 0;
  ((metrics_internal::AppendPiece(out, pieces), out += (++i < sizeof...(Pieces) ? "." : "")),
   ...);
  return out;
}

}  // namespace fastflex::telemetry
