// FlightRecorder: an always-on, fixed-capacity ring of the last N notable
// runtime events (mode flips, alarms, fault injections, drops, queue
// spikes), for postmortems when a run ends badly — the black box the
// adversarial-settings literature asks defense platforms to carry.
//
// Unlike the Tracer (unbounded, opt-in), the ring is bounded and cheap
// enough to leave recording in every run: one struct copy per record,
// overwriting the oldest once full.  Records carry only sim-time and
// integer ids — no wall clock, no strings — so the serialized "flight"
// section is byte-identical across same-seed reruns and participates in
// the replay-identity guarantee (only the "prof" section is exempt).
//
// Dumps: RequestDump(reason) snapshots the ring (oldest-first) as a JSON
// document; the fault injector triggers one automatically on switch crash
// and bench gates trigger one on a breach.  The latest dump is kept
// in-memory and optionally mirrored to a file path for CI artifact upload.
//
// Like the rest of telemetry, this sits at the bottom of the library stack
// and must not depend on sim/fault/control types.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.h"

namespace fastflex::telemetry {

enum class FlightKind : std::uint8_t {
  kModeFlip,      // a = node, b = new mode word, c = epoch
  kAlarm,         // a = node, b = alarmed mode bits, c = epoch
  kFaultInject,   // a = node, b = link, c = fault code (fault/injector.cpp)
  kFaultRepair,   // a = node, b = link
  kSwitchCrash,   // a = node
  kSwitchReboot,  // a = node
  kLinkDrop,      // a = link, b = dropped bytes, c = 1 if link was down
  kQueueSpike,    // a = link, b = queued bytes, c = capacity bytes
  kGateBreach,    // a/b/c caller-defined (bench gate ids)
  kAuthReject,    // a = node, b = claimed origin, c = claimed epoch
  kDump,          // a = dump ordinal; marks where a snapshot was cut
};

const char* FlightKindName(FlightKind kind);

struct FlightRecord {
  SimTime t = 0;
  FlightKind kind = FlightKind::kModeFlip;
  std::int64_t a = -1;
  std::int64_t b = -1;
  std::int64_t c = -1;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void Record(SimTime t, FlightKind kind, std::int64_t a = -1, std::int64_t b = -1,
              std::int64_t c = -1) {
    const FlightRecord rec{t, kind, a, b, c};
    if (ring_.size() < capacity_) {
      ring_.push_back(rec);
    } else {
      ring_[next_] = rec;
      ++overwritten_;
    }
    next_ = (next_ + 1) % capacity_;
    ++total_;
  }

  /// Snapshots the ring as a JSON dump tagged with `reason`, keeps it as
  /// last_dump(), appends it to dump_path() when one is set, and marks the
  /// cut with a kDump record.  Returns the dump document.
  std::string RequestDump(const std::string& reason, SimTime t = 0);

  /// Mirrors every subsequent dump to `path` (one JSON document per line).
  void set_dump_path(const std::string& path) { dump_path_ = path; }
  const std::string& dump_path() const { return dump_path_; }

  const std::string& last_dump() const { return last_dump_; }
  std::size_t dumps() const { return dumps_; }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return ring_.size(); }
  std::uint64_t total() const { return total_; }
  std::uint64_t overwritten() const { return overwritten_; }
  bool HasData() const { return total_ > 0; }

  /// Ring contents oldest-first.
  std::vector<FlightRecord> Snapshot() const;

  std::uint64_t CountOf(FlightKind kind) const;

  /// The "flight" section of the telemetry artifact: capacity/total/counts
  /// plus the ring oldest-first.  Integer fields only — byte-identical
  /// across machines for the same run, so replay tests include it.
  std::string ToJsonSection() const;

 private:
  std::size_t capacity_;
  std::vector<FlightRecord> ring_;
  std::size_t next_ = 0;  // overwrite position once full
  std::uint64_t total_ = 0;
  std::uint64_t overwritten_ = 0;
  std::size_t dumps_ = 0;
  std::string last_dump_;
  std::string dump_path_;
};

}  // namespace fastflex::telemetry
