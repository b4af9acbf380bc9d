// ShardSink: per-worker capture buffers that make sharded telemetry
// byte-identical to the K=1 run.
//
// The sharded engine executes shards on worker threads, so telemetry
// writers (flight recorder, trace events, INT journeys, network
// drop/retransmit hooks) would otherwise race on the Recorder — and even
// race-free, their interleaving would depend on thread timing.  Instead
// every worker thread gets a private ShardSink installed as a
// thread_local; the recording classes check it first and divert their
// records into it.  At Finish the engine hands all sinks (coordinator
// first, then shards in index order) to MergeShardSinks, which rebuilds
// each Recorder stream in CANONICAL order:
//
//   stable_sort of the concatenated tagged records by (t, ctx)
//
// where ctx is the owner node of the event that emitted the record (-1 for
// coordinator work, which the engine runs before shard events at equal
// times — hence -1 sorting first).  Records with equal (t, ctx) can only
// come from a single sink, whose internal order is itself a deterministic
// function of the run, so the sorted sequence — and therefore every rebuilt
// stream — is independent of the shard count and of thread timing.  That
// is the whole determinism story: capture per thread, replay canonically.
//
// Counter-like data (drop/retransmit totals, 100 ms time-series bins)
// needs no ordering at all — integer sums are associative — so those merge
// by plain addition.  Counters a module keeps itself (the SYN proxy's, the
// mode agent's) need no capture: only the shard that owns the switch ever
// touches them, and CollectTelemetry copies them after the run.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "telemetry/flight_recorder.h"
#include "telemetry/int_collector.h"
#include "telemetry/trace.h"
#include "util/stats.h"
#include "util/types.h"

namespace fastflex::telemetry {

class Recorder;
class Profiler;

struct ShardSink {
  /// Per-sink flight ring bound.  Larger than FlightRecorder's ring (256)
  /// by a wide margin: a record evicted here could be missed by the merged
  /// ring only if one shard emitted kFlightCap records at a single
  /// timestamp while the canonical tail still wanted the evicted one —
  /// which would need thousands of same-nanosecond flight records
  /// (DESIGN.md §11 spells out the bound).
  static constexpr std::size_t kFlightCap = 8192;

  // Maintained by the engine's dispatch loops: the owner node of the event
  // currently running on this thread (-1 = coordinator) and its sim time.
  std::int64_t ctx = -1;
  SimTime now = 0;

  /// The profiler hook sites on this thread must use (a private per-shard
  /// instance, merged by Profiler::MergeFrom at Finish).  nullptr when
  /// profiling is off — sites must NOT fall back to a shared profiler
  /// while a sink is installed, or worker threads would race on it.
  Profiler* prof = nullptr;

  // ---- Summable shadows (merged by addition) ----
  std::uint64_t link_drops = 0;
  std::uint64_t link_down_drops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t policy_drops = 0;
  std::uint64_t deliveries = 0;  ///< channel deliveries executed by this worker
  TimeSeries drop_series{100 * kMillisecond};
  TimeSeries retx_series{100 * kMillisecond};

  // ---- Order-sensitive streams (tagged, replayed canonically) ----
  struct CwndSample {
    SimTime t;
    std::int64_t ctx;
    double cwnd;
  };
  std::vector<CwndSample> cwnd;

  struct TaggedFlight {
    std::int64_t ctx;
    FlightRecord rec;  // carries its own t
  };
  std::deque<TaggedFlight> flight;  // ring-bounded at kFlightCap
  std::uint64_t flight_total = 0;   // including evicted

  struct TaggedTraceEvent {
    std::int64_t ctx;
    TraceEvent ev;
  };
  std::vector<TaggedTraceEvent> trace_events;

  struct TaggedJourney {
    SimTime t;
    std::int64_t ctx;
    IntJourney journey;
  };
  std::vector<TaggedJourney> journeys;

  /// Flight-ring dump requests raised from this worker's events.  A worker
  /// sees only its own shard's ring, so FlightRecorder::RequestDump defers
  /// the dump here instead of snapshotting a partial ring; the engine
  /// drains all sinks' requests at the next coordinator barrier — where the
  /// canonical merged ring exists and the drain order (t, ctx) is a pure
  /// function of the run, not of the shard count.
  struct PendingDump {
    SimTime t;
    std::int64_t ctx;
    std::string reason;
  };
  std::vector<PendingDump> pending_dumps;

  void PushFlight(const FlightRecord& rec) {
    if (flight.size() >= kFlightCap) flight.pop_front();
    flight.push_back(TaggedFlight{ctx, rec});
    ++flight_total;
  }
};

/// Installs (nullptr: clears) the calling thread's sink.  Engine-only; must
/// be cleared before the engine returns so later legacy runs on the same
/// thread record directly again.
void SetCurrentShardSink(ShardSink* sink);

/// The calling thread's sink (nullptr when not running under a sharded
/// engine dispatch loop).
ShardSink* CurrentShardSink();

/// The profiler a hook site should use right now: the installed sink's
/// per-shard profiler when sharded (possibly nullptr — profiling off),
/// else the caller's cached pointer.  Hook sites that cache enabled_self()
/// at attach time (pipeline walk) resolve through this instead, because
/// the cached shared pointer would be a data race across shard workers.
inline Profiler* ResolveProf(Profiler* fallback) {
  ShardSink* sink = CurrentShardSink();
  return sink != nullptr ? sink->prof : fallback;
}

/// Rebuilds `flight`'s ring from the canonical merge of all sinks' flight
/// buffers.  Idempotent (clears first), so it serves both the mid-run dump
/// hook and the final merge.  `sinks` must be in fixed order: coordinator
/// first, then shards by index.
void MergeShardFlight(const std::vector<const ShardSink*>& sinks, FlightRecorder& flight);

/// Full one-shot merge into the recorder: flight ring rebuild plus
/// canonical replay of trace events (fault and elastic records included)
/// and INT journeys.  cwnd is NOT here (the Network owns that hook — see
/// Network::MergeSinkTelemetry).  Call exactly once, with no sink installed.
void MergeShardSinks(const std::vector<const ShardSink*>& sinks, Recorder& rec);

}  // namespace fastflex::telemetry
