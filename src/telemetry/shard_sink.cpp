#include "telemetry/shard_sink.h"

#include <algorithm>

#include "telemetry/telemetry.h"

namespace fastflex::telemetry {

namespace {
thread_local ShardSink* g_shard_sink = nullptr;
}  // namespace

ShardSink* CurrentShardSink() { return g_shard_sink; }

void SetCurrentShardSink(ShardSink* sink) { g_shard_sink = sink; }

void ShardSinkFlight(ShardSink& sink, const FlightRecord& rec) { sink.PushFlight(rec); }

void ShardSinkDumpRequest(ShardSink& sink, const std::string& reason, SimTime t) {
  sink.pending_dumps.push_back(ShardSink::PendingDump{t, sink.ctx, reason});
}

void MergeShardFlight(const std::vector<const ShardSink*>& sinks, FlightRecorder& flight) {
  std::vector<ShardSink::TaggedFlight> all;
  std::uint64_t total = 0;
  for (const ShardSink* s : sinks) {
    all.insert(all.end(), s->flight.begin(), s->flight.end());
    total += s->flight_total;
  }
  // Records with equal (t, ctx) come from exactly one sink (a node's events
  // run on its owner shard; ctx -1 runs on the coordinator), so the stable
  // sort over the fixed coordinator-then-shards concatenation preserves
  // each context's own deterministic emission order — the result does not
  // depend on the shard count.
  std::stable_sort(all.begin(), all.end(),
                   [](const ShardSink::TaggedFlight& a, const ShardSink::TaggedFlight& b) {
                     return a.rec.t != b.rec.t ? a.rec.t < b.rec.t : a.ctx < b.ctx;
                   });
  std::vector<FlightRecord> records;
  records.reserve(all.size());
  for (const auto& tagged : all) records.push_back(tagged.rec);
  flight.RebuildFromCanonical(records, total);
}

void MergeShardSinks(const std::vector<const ShardSink*>& sinks, Recorder& rec) {
  MergeShardFlight(sinks, rec.flight());

  std::vector<ShardSink::TaggedTraceEvent> traces;
  std::vector<const ShardSink::TaggedJourney*> journeys;
  for (const ShardSink* s : sinks) {
    traces.insert(traces.end(), s->trace_events.begin(), s->trace_events.end());
    for (const auto& j : s->journeys) journeys.push_back(&j);
  }

  std::stable_sort(traces.begin(), traces.end(),
                   [](const ShardSink::TaggedTraceEvent& a, const ShardSink::TaggedTraceEvent& b) {
                     return a.ev.t != b.ev.t ? a.ev.t < b.ev.t : a.ctx < b.ctx;
                   });
  for (auto& tagged : traces) rec.trace().Append(std::move(tagged.ev));

  std::stable_sort(journeys.begin(), journeys.end(),
                   [](const ShardSink::TaggedJourney* a, const ShardSink::TaggedJourney* b) {
                     return a->t != b->t ? a->t < b->t : a->ctx < b->ctx;
                   });
  for (const auto* tagged : journeys) rec.int_collector().Ingest(tagged->journey);
}

}  // namespace fastflex::telemetry
