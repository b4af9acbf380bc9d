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
#include <functional>
#include <string>
#include <vector>

#include "util/types.h"

namespace fastflex::telemetry {

struct ShardSink;
struct FlightRecord;

/// The calling thread's shard-capture sink, or nullptr — which it is in
/// every run outside sim::ShardedEngine.  Defined in shard_sink.cpp; the
/// recording classes below divert into it so sharded runs stay race-free
/// and byte-identical to K=1 (see shard_sink.h).
ShardSink* CurrentShardSink();

/// Out-of-line capture of one flight record into `sink` (shard_sink.cpp).
void ShardSinkFlight(ShardSink& sink, const FlightRecord& rec);

/// Queues a dump request on `sink` for the engine to execute at the next
/// coordinator barrier (shard_sink.cpp).  A worker thread must not cut a
/// dump itself: it sees only its own shard's ring.
void ShardSinkDumpRequest(ShardSink& sink, const std::string& reason, SimTime t);

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
    if (ShardSink* sink = CurrentShardSink()) [[unlikely]] {
      ShardSinkFlight(*sink, rec);
      return;
    }
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
  ///
  /// Called from a sharded-engine WORKER context (a shard sink with a node
  /// ctx is installed), the dump is instead deferred: the request is queued
  /// on the worker's sink and executed by the engine at the next
  /// coordinator barrier, where the canonical merged ring exists — a worker
  /// ring alone holds only its own shard's records.  The deferred call
  /// returns a small "deferred" notice document; the real dump lands in
  /// last_dump()/dump_path() at the barrier, byte-identical for any shard
  /// count.
  std::string RequestDump(const std::string& reason, SimTime t = 0);

  /// Invoked at the top of RequestDump when set.  The sharded engine
  /// installs a hook that rebuilds the ring from the per-shard sinks (via
  /// RebuildFromCanonical) so a mid-run dump sees the canonical merged
  /// tail, not whatever happened to be recorded before the engine attached.
  /// The engine clears the hook at Finish.
  void set_pre_dump_hook(std::function<void()> hook) { pre_dump_hook_ = std::move(hook); }

  /// Replaces the ring with the last `capacity()` of `records` (which must
  /// already be in canonical order) and restores the counters a single
  /// ring fed every record would show: total = `true_total`, overwritten =
  /// max(0, true_total - capacity).  Bypasses the shard-sink redirect.
  void RebuildFromCanonical(const std::vector<FlightRecord>& records,
                            std::uint64_t true_total);

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
  std::function<void()> pre_dump_hook_;
};

}  // namespace fastflex::telemetry
