// IntCollector: journey reconstruction and path analytics for in-band
// network telemetry.
//
// The IntSinkPpm strips a packet's hop-record stack at the egress edge and
// hands it here as one IntJourney.  The collector aggregates incrementally —
// per-flow path summaries (latency distribution, per-hop queue maxima, path
// churn), per-switch hop statistics (time-binned queue maxima that answer
// "which hop was hottest during attack epoch [a, b)"), and mode-word
// observations that measure, from inside the packets, how long an alarm took
// to become an active mode at each hop.  Raw journeys are NOT retained
// unboundedly: a Fig3-scale run produces hundreds of thousands, so only a
// small ring buffer of the most recent ones is kept for tests and debugging.
//
// Everything exported is integer-valued or derived deterministically from
// integers, and every exported map is ordered (std::map), so the `int`
// section of the fastflex.telemetry.v1 JSON is byte-identical across
// same-seed replays — the same discipline as the rest of the exporter.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "telemetry/int_record.h"
#include "util/types.h"

namespace fastflex::telemetry {

/// One packet's reconstructed journey: the stripped hop-record stack plus
/// the identifying fields the sink copied off the packet.
struct IntJourney {
  FlowId flow = kInvalidFlow;
  std::uint64_t flow_key = 0;
  std::uint64_t seq = 0;
  SimTime sent_at = 0;       // sender timestamp carried by the packet
  SimTime completed_at = 0;  // sim time the sink stripped the stack
  std::uint32_t dropped_hops = 0;  // records lost to the depth bound
  std::vector<IntHopRecord> hops;

  /// The hop sequence as switch ids (journey path).
  std::vector<NodeId> PathSwitches() const;

  /// In-band path latency: last hop's scheduled egress minus first hop's
  /// ingress.  Zero when the stack is empty.
  SimTime PathLatency() const;
};

/// Per-flow aggregate built incrementally from this flow's journeys.
struct IntFlowSummary {
  std::uint64_t journeys = 0;
  std::uint64_t truncated = 0;      // journeys that overflowed the stack
  std::uint64_t path_changes = 0;   // hop-sequence changes between journeys
  std::uint64_t mode_word_changes = 0;  // along-path mode transitions seen

  // Path-latency distribution (integer nanoseconds; mean derived at export).
  std::uint64_t latency_count = 0;
  SimTime latency_min = 0;
  SimTime latency_max = 0;
  std::int64_t latency_sum = 0;

  std::vector<NodeId> last_path;  // hop sequence of the latest journey
  /// Max queue depth this flow observed at each hop it traversed.
  std::map<NodeId, std::uint64_t> max_queue_by_hop;
};

/// Per-switch aggregate over every hop record that transited it.
struct IntHopStats {
  std::uint64_t records = 0;
  std::uint64_t max_queue_bytes = 0;
  std::uint64_t queue_bytes_sum = 0;  // for mean queue depth at export
  SimTime max_residence = 0;          // max (egress_at - ingress_at)
  std::uint64_t mode_changes = 0;     // epoch-ordered mode-word transitions

  // Highest observed mode epoch and the word seen at it (epoch ordering
  // makes the transition count immune to out-of-order journey completion).
  std::uint64_t last_mode_epoch = 0;
  std::uint32_t last_mode_word = 0;
  bool mode_seen = false;

  /// Per-time-bin maximum queue depth (bin i covers
  /// [i*bin_width, (i+1)*bin_width) of record ingress time).
  std::vector<std::uint64_t> queue_max_bins;
};

/// A switch whose observed mode word changed (epoch-ordered), kept as an
/// exported event list so experiments can line mode flips up against the
/// out-of-band `mode_change` trace events.
struct IntModeObservation {
  SimTime t = 0;  // ingress time of the record that carried the new word
  NodeId switch_id = kInvalidNode;
  std::uint32_t prev_word = 0;
  std::uint32_t word = 0;
  std::uint64_t epoch = 0;
};

/// A flow whose hop sequence changed between consecutive journeys — the
/// in-band signature of a reroute or mode change.
struct IntChurnEvent {
  SimTime t = 0;  // completion time of the journey with the new path
  FlowId flow = kInvalidFlow;
  std::uint64_t seq = 0;
  std::vector<NodeId> prev_path;
  std::vector<NodeId> path;
};

class IntCollector {
 public:
  /// Bin width for per-switch queue-depth maxima (HottestHop resolution).
  explicit IntCollector(SimTime queue_bin_width = kSecond)
      : bin_width_(queue_bin_width > 0 ? queue_bin_width : kSecond) {}

  /// Consumes one journey (called by IntSinkPpm).
  void Ingest(IntJourney journey);

  bool HasData() const { return journeys_ > 0; }

  // ---- Aggregate accessors ----
  std::uint64_t journeys() const { return journeys_; }
  std::uint64_t records() const { return records_; }
  std::uint64_t truncated_journeys() const { return truncated_journeys_; }
  std::uint64_t dropped_hop_records() const { return dropped_hop_records_; }
  std::uint64_t path_churn_total() const { return path_churn_total_; }
  SimTime queue_bin_width() const { return bin_width_; }

  const std::map<FlowId, IntFlowSummary>& flows() const { return flows_; }
  const std::map<NodeId, IntHopStats>& hops() const { return hops_; }
  const std::vector<IntModeObservation>& mode_observations() const {
    return mode_observations_;
  }
  const std::vector<IntChurnEvent>& churn_events() const { return churn_events_; }

  /// The last kRecentCap journeys, oldest first (a copy of the bounded
  /// ring; for tests).
  static constexpr std::size_t kRecentCap = 64;
  std::vector<IntJourney> recent_journeys() const;

  // ---- Diagnosis queries ----

  struct HotHop {
    NodeId switch_id = kInvalidNode;
    std::uint64_t max_queue_bytes = 0;
  };
  /// The switch with the highest per-bin queue maximum whose bin overlaps
  /// [from, to).  Ties break toward the lowest switch id (deterministic).
  std::optional<HotHop> HottestHop(SimTime from, SimTime to) const;

  /// The earliest record ingress time at which `mode_bit` appeared set in
  /// any hop's mode word — the in-band proof the mode flip took effect.
  std::optional<SimTime> FirstModeObservation(std::uint32_t mode_bit) const;

  /// Serializes the collector as the value of the exporter's "int" key
  /// (a JSON object, deterministic field order).
  std::string ToJsonSection() const;

  void Reset();

 private:
  static constexpr std::size_t kModeObservationCap = 1024;
  static constexpr std::size_t kChurnEventCap = 512;

  SimTime bin_width_;

  std::uint64_t journeys_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t truncated_journeys_ = 0;
  std::uint64_t dropped_hop_records_ = 0;
  std::uint64_t path_churn_total_ = 0;
  std::uint64_t mode_observations_dropped_ = 0;
  std::uint64_t churn_events_dropped_ = 0;

  std::map<FlowId, IntFlowSummary> flows_;
  std::map<NodeId, IntHopStats> hops_;
  /// Earliest in-band sighting per mode bit, keyed by single-bit mask.
  std::map<std::uint32_t, SimTime> first_mode_seen_;
  std::vector<IntModeObservation> mode_observations_;
  std::vector<IntChurnEvent> churn_events_;
  /// Bounded ring: fills to kRecentCap, then each journey overwrites the
  /// oldest one, at recent_next_.
  std::vector<IntJourney> recent_;
  std::size_t recent_next_ = 0;
};

}  // namespace fastflex::telemetry
