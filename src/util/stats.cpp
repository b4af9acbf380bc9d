#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace fastflex {

void Summary::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double Summary::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double Summary::stddev() const { return std::sqrt(variance()); }

std::string Summary::ToString() const {
  std::ostringstream os;
  os << "n=" << count_ << " mean=" << mean() << " sd=" << stddev() << " min=" << min()
     << " max=" << max();
  return os.str();
}

void Ewma::Update(double sample, SimTime now) {
  if (!has_value_) {
    value_ = sample;
    has_value_ = true;
  } else {
    const double dt = ToSeconds(now - last_);
    const double alpha = dt <= 0.0 ? 1.0 : 1.0 - std::exp(-dt / tau_);
    value_ += alpha * (sample - value_);
  }
  last_ = now;
}

double Ewma::ValueAt(SimTime now) const {
  if (!has_value_) return 0.0;
  const double dt = ToSeconds(now - last_);
  if (dt <= 0.0) return value_;
  return value_ * std::exp(-dt / tau_);
}

void TimeSeries::Add(SimTime t, double amount) {
  if (t < 0) t = 0;
  const std::size_t bin = static_cast<std::size_t>(t / bin_width_);
  if (bin >= bins_.size()) bins_.resize(bin + 1, 0.0);
  bins_[bin] += amount;
}

double TimeSeries::BinTotal(std::size_t i) const { return i < bins_.size() ? bins_[i] : 0.0; }

double TimeSeries::Rate(std::size_t i) const {
  return BinTotal(i) / ToSeconds(bin_width_);
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), buckets_(buckets, 0) {}

void Histogram::Add(double x) {
  const double frac = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<std::int64_t>(frac * static_cast<double>(buckets_.size()));
  idx = std::clamp<std::int64_t>(idx, 0, static_cast<std::int64_t>(buckets_.size()) - 1);
  ++buckets_[static_cast<std::size_t>(idx)];
  ++count_;
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) >= target) {
      const double width = (hi_ - lo_) / static_cast<double>(buckets_.size());
      return lo_ + (static_cast<double>(i) + 0.5) * width;
    }
  }
  return hi_;
}

}  // namespace fastflex
