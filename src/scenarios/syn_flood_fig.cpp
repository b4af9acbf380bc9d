#include "scenarios/syn_flood_fig.h"

#include "sim/handshake.h"

namespace fastflex::scenarios {

SynFloodFigResult RunSynFloodFig(const SynFloodFigOptions& options) {
  ScenarioBuilder builder;
  builder.Seed(options.seed)
      .Defense(options.defense)
      .EnableInt(options.enable_int)
      .AttackAt(options.attack_at)
      .SynFlood(options.flood)
      .SampleModes(dataplane::mode::kSynDefense)
      .Record(options.recorder);
  BuiltScenario s = builder.Build();
  s.net->RunUntil(options.duration);

  SynFloodFigResult r;
  r.sessions = static_cast<int>(s.sessions.size());
  r.modes_active_at = s.modes_active_at();
  r.events_processed = s.net->TotalEventsProcessed();

  for (FlowId f : s.sessions) {
    r.delivered_bytes += s.net->flow_stats(f).delivered_bytes;
    const NodeId client = s.net->flow_endpoints(f).src;
    sim::Host* host = s.net->host_at(client);
    if (host == nullptr) continue;
    auto* hc = dynamic_cast<sim::HandshakeClient*>(host->endpoint(f));
    if (hc == nullptr) continue;
    if (hc->established()) ++r.established;
    if (hc->gave_up()) ++r.gave_up;
    if (hc->closed()) ++r.completed;
  }

  if (s.syn_attacker != nullptr) r.flood_syns = s.syn_attacker->syns_sent();
  if (s.listener != nullptr) {
    r.victim_syns_seen = s.listener->syns_seen();
    r.victim_syns_refused = s.listener->syns_refused();
    r.victim_half_open_evictions = s.listener->half_open_evictions();
    r.victim_accepted = s.listener->accepted();
  }

  if (s.orchestrator != nullptr) {
    for (const auto& node : s.net->topology().nodes()) {
      if (node.kind != sim::NodeKind::kSwitch) continue;
      if (auto* proxy = s.orchestrator->syn_proxy(node.id)) {
        r.cookies_sent += proxy->cookies_sent();
        r.handshakes_validated += proxy->handshakes_validated();
        r.invalid_cookies += proxy->invalid_cookies();
        r.policed_drops += proxy->policed_drops();
        r.filter_inserts += proxy->filter().insertions();
        r.filter_insert_failures += proxy->filter().failed_inserts();
      }
      if (auto* xlate = s.orchestrator->seq_translate(node.id)) {
        r.seq_translated += xlate->seq_translated();
      }
    }
  }

  if (options.recorder != nullptr) {
    telemetry::Recorder& rec = *options.recorder;
    s.net->CollectTelemetry(rec);
    if (s.orchestrator != nullptr) s.orchestrator->CollectTelemetry(rec);
    auto& m = rec.metrics();
    m.GetCounter("synfig.sessions").Set(static_cast<std::uint64_t>(r.sessions));
    m.GetCounter("synfig.established").Set(static_cast<std::uint64_t>(r.established));
    m.GetCounter("synfig.gave_up").Set(static_cast<std::uint64_t>(r.gave_up));
    m.GetCounter("synfig.completed").Set(static_cast<std::uint64_t>(r.completed));
    m.GetCounter("synfig.delivered_bytes").Set(r.delivered_bytes);
    m.GetCounter("synfig.flood_syns").Set(r.flood_syns);
    m.GetCounter("synfig.victim_syns_refused").Set(r.victim_syns_refused);
    m.GetCounter("synfig.cookies_sent").Set(r.cookies_sent);
    m.GetCounter("synfig.handshakes_validated").Set(r.handshakes_validated);
    m.GetGauge("synfig.modes_active_s").Set(ToSeconds(r.modes_active_at));
    // The run is over; detach so the recorder cannot dangle past `net`.
    s.net->SetTelemetry(nullptr);
  }
  return r;
}

}  // namespace fastflex::scenarios
