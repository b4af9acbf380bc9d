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

}  // namespace fastflex
