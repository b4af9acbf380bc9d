#include "telemetry/int_collector.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace fastflex::telemetry {

namespace {

// Same round-trip formatting discipline as the exporter: "%.17g", non-finite
// values as null, so derived doubles (means) replay byte-identically.
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string PathToJson(const std::vector<NodeId>& path) {
  std::string s = "[";
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(path[i]);
  }
  return s + "]";
}

bool SamePath(const std::vector<NodeId>& path, const std::vector<IntHopRecord>& hops) {
  return std::equal(path.begin(), path.end(), hops.begin(), hops.end(),
                    [](NodeId sw, const IntHopRecord& h) { return sw == h.switch_id; });
}

}  // namespace

std::vector<NodeId> IntJourney::PathSwitches() const {
  std::vector<NodeId> path;
  path.reserve(hops.size());
  for (const auto& h : hops) path.push_back(h.switch_id);
  return path;
}

SimTime IntJourney::PathLatency() const {
  if (hops.empty()) return 0;
  return hops.back().egress_at - hops.front().ingress_at;
}

void IntCollector::Ingest(IntJourney journey) {
  ++journeys_;
  records_ += journey.hops.size();
  dropped_hop_records_ += journey.dropped_hops;
  if (journey.dropped_hops > 0) ++truncated_journeys_;

  for (const auto& h : journey.hops) {
    IntHopStats& s = hops_[h.switch_id];
    ++s.records;
    s.queue_bytes_sum += h.queue_bytes;
    if (h.queue_bytes > s.max_queue_bytes) s.max_queue_bytes = h.queue_bytes;
    const SimTime residence = h.egress_at - h.ingress_at;
    if (residence > s.max_residence) s.max_residence = residence;

    if (h.ingress_at >= 0) {
      const std::size_t bin = static_cast<std::size_t>(h.ingress_at / bin_width_);
      if (bin >= s.queue_max_bins.size()) s.queue_max_bins.resize(bin + 1, 0);
      if (h.queue_bytes > s.queue_max_bins[bin]) s.queue_max_bins[bin] = h.queue_bytes;
    }

    // Earliest in-band sighting of each set mode bit (iterate set bits only).
    for (std::uint32_t w = h.mode_word; w != 0; w &= w - 1) {
      const std::uint32_t mask = w & (~w + 1);
      auto [it, inserted] = first_mode_seen_.try_emplace(mask, h.ingress_at);
      if (!inserted && h.ingress_at < it->second) it->second = h.ingress_at;
    }

    // Mode-word transitions, ordered by the switch's own application epoch so
    // out-of-order journey completion cannot manufacture phantom flips.
    if (!s.mode_seen) {
      s.mode_seen = true;
      s.last_mode_epoch = h.mode_epoch;
      s.last_mode_word = h.mode_word;
    } else if (h.mode_epoch > s.last_mode_epoch) {
      if (h.mode_word != s.last_mode_word) {
        ++s.mode_changes;
        if (mode_observations_.size() < kModeObservationCap) {
          mode_observations_.push_back(
              {h.ingress_at, h.switch_id, s.last_mode_word, h.mode_word, h.mode_epoch});
        } else {
          ++mode_observations_dropped_;
        }
      }
      s.last_mode_epoch = h.mode_epoch;
      s.last_mode_word = h.mode_word;
    }
  }

  if (journey.flow != kInvalidFlow) {
    IntFlowSummary& f = flows_[journey.flow];
    ++f.journeys;
    if (journey.dropped_hops > 0) ++f.truncated;

    if (!journey.hops.empty()) {
      const SimTime lat = journey.PathLatency();
      if (f.latency_count == 0) {
        f.latency_min = lat;
        f.latency_max = lat;
      } else {
        if (lat < f.latency_min) f.latency_min = lat;
        if (lat > f.latency_max) f.latency_max = lat;
      }
      ++f.latency_count;
      f.latency_sum += lat;

      for (const auto& h : journey.hops) {
        std::uint64_t& q = f.max_queue_by_hop[h.switch_id];
        if (h.queue_bytes > q) q = h.queue_bytes;
      }
      for (std::size_t i = 1; i < journey.hops.size(); ++i) {
        if (journey.hops[i].mode_word != journey.hops[i - 1].mode_word)
          ++f.mode_word_changes;
      }
    }

    // The path is materialized only when it differs from the last one,
    // which includes a flow's first journey (never counted as churn).
    if (!SamePath(f.last_path, journey.hops)) {
      std::vector<NodeId> path = journey.PathSwitches();
      if (f.journeys > 1) {
        ++f.path_changes;
        ++path_churn_total_;
        if (churn_events_.size() < kChurnEventCap) {
          churn_events_.push_back(
              {journey.completed_at, journey.flow, journey.seq, std::move(f.last_path), path});
        } else {
          ++churn_events_dropped_;
        }
      }
      f.last_path = std::move(path);
    }
  }

  if (recent_.size() < kRecentCap) {
    recent_.push_back(std::move(journey));
  } else {
    recent_[recent_next_] = std::move(journey);
  }
  recent_next_ = (recent_next_ + 1) % kRecentCap;
}

std::vector<IntJourney> IntCollector::recent_journeys() const {
  // Once the ring is full recent_next_ is the oldest entry; before, it is
  // recent_.size().  Either way the two halves read oldest first.
  const auto split = recent_.begin() + static_cast<std::ptrdiff_t>(recent_next_);
  std::vector<IntJourney> out(split, recent_.end());
  out.insert(out.end(), recent_.begin(), split);
  return out;
}

std::optional<IntCollector::HotHop> IntCollector::HottestHop(SimTime from,
                                                             SimTime to) const {
  if (from < 0) from = 0;
  if (to <= from) return std::nullopt;
  const std::size_t lo = static_cast<std::size_t>(from / bin_width_);
  const std::size_t hi = static_cast<std::size_t>((to - 1) / bin_width_);

  std::optional<HotHop> best;
  for (const auto& [sw, s] : hops_) {
    if (s.queue_max_bins.empty()) continue;
    bool covered = false;
    std::uint64_t max_q = 0;
    for (std::size_t b = lo; b <= hi && b < s.queue_max_bins.size(); ++b) {
      covered = true;
      if (s.queue_max_bins[b] > max_q) max_q = s.queue_max_bins[b];
    }
    if (!covered) continue;
    if (!best || max_q > best->max_queue_bytes) best = HotHop{sw, max_q};
  }
  return best;
}

std::optional<SimTime> IntCollector::FirstModeObservation(std::uint32_t mode_bit) const {
  std::optional<SimTime> earliest;
  for (std::uint32_t w = mode_bit; w != 0; w &= w - 1) {
    const std::uint32_t mask = w & (~w + 1);
    auto it = first_mode_seen_.find(mask);
    if (it == first_mode_seen_.end()) continue;
    if (!earliest || it->second < *earliest) earliest = it->second;
  }
  return earliest;
}

std::string IntCollector::ToJsonSection() const {
  std::string out = "{";
  out += "\"journeys\":" + std::to_string(journeys_);
  out += ",\"records\":" + std::to_string(records_);
  out += ",\"truncated_journeys\":" + std::to_string(truncated_journeys_);
  out += ",\"dropped_hop_records\":" + std::to_string(dropped_hop_records_);
  out += ",\"path_churn_total\":" + std::to_string(path_churn_total_);
  out += ",\"queue_bin_width_s\":" + Num(ToSeconds(bin_width_));
  out += ",\"mode_observations_dropped\":" + std::to_string(mode_observations_dropped_);
  out += ",\"churn_events_dropped\":" + std::to_string(churn_events_dropped_);

  out += ",\"mode_first_seen\":{";
  bool first = true;
  for (const auto& [mask, t] : first_mode_seen_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + std::to_string(mask) + "\":" + std::to_string(t);
  }
  out += "}";

  out += ",\"flows\":{";
  first = true;
  for (const auto& [flow, f] : flows_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + std::to_string(flow) + "\":{";
    out += "\"journeys\":" + std::to_string(f.journeys);
    out += ",\"truncated\":" + std::to_string(f.truncated);
    out += ",\"path_changes\":" + std::to_string(f.path_changes);
    out += ",\"mode_word_changes\":" + std::to_string(f.mode_word_changes);
    out += ",\"latency\":{\"count\":" + std::to_string(f.latency_count);
    out += ",\"min\":" + std::to_string(f.latency_count > 0 ? f.latency_min : 0);
    out += ",\"max\":" + std::to_string(f.latency_count > 0 ? f.latency_max : 0);
    const double mean =
        f.latency_count > 0
            ? static_cast<double>(f.latency_sum) / static_cast<double>(f.latency_count)
            : 0.0;
    out += ",\"mean\":" + Num(mean) + "}";
    out += ",\"last_path\":" + PathToJson(f.last_path);
    out += ",\"max_queue_by_hop\":{";
    bool qfirst = true;
    for (const auto& [sw, q] : f.max_queue_by_hop) {
      if (!qfirst) out += ",";
      qfirst = false;
      out += "\"" + std::to_string(sw) + "\":" + std::to_string(q);
    }
    out += "}}";
  }
  out += "}";

  out += ",\"hops\":{";
  first = true;
  for (const auto& [sw, s] : hops_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + std::to_string(sw) + "\":{";
    out += "\"records\":" + std::to_string(s.records);
    out += ",\"max_queue_bytes\":" + std::to_string(s.max_queue_bytes);
    const double mean_q =
        s.records > 0
            ? static_cast<double>(s.queue_bytes_sum) / static_cast<double>(s.records)
            : 0.0;
    out += ",\"mean_queue_bytes\":" + Num(mean_q);
    out += ",\"max_residence\":" + std::to_string(s.max_residence);
    out += ",\"mode_changes\":" + std::to_string(s.mode_changes);
    out += ",\"queue_max_bins\":[";
    for (std::size_t i = 0; i < s.queue_max_bins.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(s.queue_max_bins[i]);
    }
    out += "]}";
  }
  out += "}";

  out += ",\"mode_observations\":[";
  first = true;
  for (const auto& o : mode_observations_) {
    if (!first) out += ",";
    first = false;
    out += "{\"t\":" + std::to_string(o.t) + ",\"switch\":" + std::to_string(o.switch_id) +
           ",\"prev\":" + std::to_string(o.prev_word) + ",\"word\":" +
           std::to_string(o.word) + ",\"epoch\":" + std::to_string(o.epoch) + "}";
  }
  out += "]";

  out += ",\"churn_events\":[";
  first = true;
  for (const auto& c : churn_events_) {
    if (!first) out += ",";
    first = false;
    out += "{\"t\":" + std::to_string(c.t) + ",\"flow\":" + std::to_string(c.flow) +
           ",\"seq\":" + std::to_string(c.seq) + ",\"prev\":" + PathToJson(c.prev_path) +
           ",\"path\":" + PathToJson(c.path) + "}";
  }
  out += "]}";
  return out;
}

void IntCollector::Reset() {
  journeys_ = 0;
  records_ = 0;
  truncated_journeys_ = 0;
  dropped_hop_records_ = 0;
  path_churn_total_ = 0;
  mode_observations_dropped_ = 0;
  churn_events_dropped_ = 0;
  flows_.clear();
  hops_.clear();
  first_mode_seen_.clear();
  mode_observations_.clear();
  churn_events_.clear();
  recent_.clear();
  recent_next_ = 0;
}

}  // namespace fastflex::telemetry
