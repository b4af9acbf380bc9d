#include "scenarios/multi_tenant_fig.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "attacks/crossfire.h"
#include "attacks/syn_flood.h"
#include "control/orchestrator.h"
#include "scheduler/te.h"
#include "sim/handshake.h"
#include "sim/network.h"
#include "sim/switch_node.h"
#include "sim/topology.h"
#include "telemetry/export.h"

namespace fastflex::scenarios {

using sim::NodeKind;

namespace {

/// The deliberately tightened per-switch budget: the four-booster default
/// program (13.0 stages with shared components) fits, and so does the LFA
/// illusion pair on top (15.5) — but syn_mitigation (+3.5 stages) does NOT
/// until the loop sheds hop_count_filter (-1.5).  Stages are the binding
/// dimension; the others keep DefaultSwitchCapacity headroom.
dataplane::ResourceVector TightSwitchCapacity() {
  return dataplane::ResourceVector{16.0, 120.0, 6144.0, 64.0};
}

}  // namespace

MultiTenantResult RunMultiTenantFig(const MultiTenantOptions& options) {
  const int R = options.regions;
  const int lfa_region = 0;      // ring index; mode region label is index+1
  const int syn_region = R / 2;  // opposite side of the ring

  // ---- Fabric: the scale_fig3 ring, plus per-tenant extras ----
  sim::Topology topo;
  std::vector<NodeId> agg(static_cast<std::size_t>(R));
  std::vector<NodeId> edge(static_cast<std::size_t>(R));
  std::vector<NodeId> server(static_cast<std::size_t>(R));
  std::vector<std::vector<NodeId>> clients(static_cast<std::size_t>(R));

  const double access_bps = 100e6;
  const double ring_bps = 400e6;
  // Narrow agg0 → decoy-edge trunk: 250 low-rate attack flows saturate
  // 25 Mbps at ~100 kbps each — below the detector's low-rate bound AND
  // below the attacker's own recovery threshold, the Crossfire operating
  // point.  It must be a switch-to-switch link: the detector's load check
  // only watches inter-switch egress.
  const double decoy_trunk_bps = 25e6;
  const SimTime access_delay = 200 * kMicrosecond;
  const SimTime ring_delay = 1 * kMillisecond;
  const std::uint32_t queue_bytes = 200'000;

  for (int r = 0; r < R; ++r) {
    const auto i = static_cast<std::size_t>(r);
    const std::string tag = std::to_string(r);
    agg[i] = topo.AddNode(NodeKind::kSwitch, "agg" + tag);
    edge[i] = topo.AddNode(NodeKind::kSwitch, "edge" + tag);
    topo.AddDuplexLink(agg[i], edge[i], access_bps, access_delay, queue_bytes);
    server[i] = topo.AddNode(NodeKind::kHost, "srv" + tag);
    topo.AddDuplexLink(agg[i], server[i], access_bps, access_delay, queue_bytes);
    for (int c = 0; c < options.clients_per_region; ++c) {
      clients[i].push_back(
          topo.AddNode(NodeKind::kHost, "cl" + tag + "_" + std::to_string(c)));
      topo.AddDuplexLink(edge[i], clients[i].back(), access_bps, access_delay,
                         queue_bytes);
    }
  }
  for (int r = 0; r < R; ++r) {
    topo.AddDuplexLink(agg[static_cast<std::size_t>(r)],
                       agg[static_cast<std::size_t>((r + 1) % R)], ring_bps,
                       ring_delay, queue_bytes);
  }

  // LFA tenant extras (ring index 0): bots behind the edge, decoy servers
  // behind a dedicated decoy-edge switch whose uplink from the agg is the
  // attack's target link.
  std::vector<NodeId> bots;
  for (int b = 0; b < 6; ++b) {
    bots.push_back(topo.AddNode(NodeKind::kHost, "bot" + std::to_string(b)));
    topo.AddDuplexLink(edge[static_cast<std::size_t>(lfa_region)], bots.back(),
                       access_bps, access_delay, queue_bytes);
  }
  const NodeId dedge = topo.AddNode(NodeKind::kSwitch, "dedge");
  topo.AddDuplexLink(agg[static_cast<std::size_t>(lfa_region)], dedge,
                     decoy_trunk_bps, access_delay, queue_bytes);
  std::vector<NodeId> decoys;
  for (int d = 0; d < 2; ++d) {
    decoys.push_back(topo.AddNode(NodeKind::kHost, "decoy" + std::to_string(d)));
    topo.AddDuplexLink(dedge, decoys.back(), access_bps, access_delay, queue_bytes);
  }

  // SYN tenant extras (ring index R/2): compromised local clients.
  std::vector<NodeId> syn_bots;
  for (int b = 0; b < 3; ++b) {
    syn_bots.push_back(topo.AddNode(NodeKind::kHost, "synbot" + std::to_string(b)));
    topo.AddDuplexLink(edge[static_cast<std::size_t>(syn_region)], syn_bots.back(),
                       access_bps, access_delay, queue_bytes);
  }
  const NodeId victim = server[static_cast<std::size_t>(syn_region)];

  // A local recorder keeps the elastic decision log even when the caller
  // did not instrument the run; the artifact-bound recorder wins when
  // present.  The network records into the same one either way.
  telemetry::Recorder local_rec;
  telemetry::Recorder* rec =
      options.recorder != nullptr ? options.recorder : &local_rec;

  sim::Network net(topo, options.seed);
  net.EnableLinkSampling(10 * kMillisecond);
  net.SetTelemetry(rec);

  // ---- Background load + TE demands: region r downloads from the next
  // ring region (skipping the SYN victim, whose only legitimate load is the
  // handshake sessions the attack targets) ----
  std::vector<scheduler::Demand> demands;
  struct BgFlow {
    NodeId client;
    NodeId dst;
    SimTime at;
  };
  std::vector<BgFlow> background;
  for (int r = 0; r < R; ++r) {
    int next = (r + 1) % R;
    if (next == syn_region) next = (next + 1) % R;
    int c = 0;
    for (NodeId cl : clients[static_cast<std::size_t>(r)]) {
      const SimTime at =
          100 * kMillisecond + static_cast<SimTime>(r * 13 + c * 31) * kMillisecond;
      background.push_back(BgFlow{cl, server[static_cast<std::size_t>(next)], at});
      demands.push_back(scheduler::Demand{cl, server[static_cast<std::size_t>(next)],
                                          4e6, kInvalidFlow});
      ++c;
    }
  }
  // The handshake clients' demand toward the victim keeps its paths in the
  // TE solution even though the sessions are scheduled, not pre-established.
  for (const int r : {(syn_region + R - 1) % R, (syn_region + 1) % R}) {
    for (NodeId cl : clients[static_cast<std::size_t>(r)]) {
      demands.push_back(scheduler::Demand{cl, victim, 2e6, kInvalidFlow});
    }
  }

  // ---- Deployment: resident detectors + reroute + shed fodder ----
  control::OrchestratorConfig cfg;
  cfg.te = scheduler::TeOptions{.k_paths = 2, .refine_rounds = 2};
  cfg.recorder = options.recorder;
  cfg.boosters = {"lfa_detection", "congestion_reroute", "syn_detection",
                  "hop_count_filter"};
  cfg.protected_dsts.push_back(net.topology().node(victim).address);
  cfg.switch_capacity = TightSwitchCapacity();
  cfg.placement.switch_capacity = TightSwitchCapacity();
  for (int r = 0; r < R; ++r) {
    const auto i = static_cast<std::size_t>(r);
    cfg.regions[agg[i]] = static_cast<std::uint32_t>(r + 1);
    cfg.regions[edge[i]] = static_cast<std::uint32_t>(r + 1);
  }
  cfg.regions[dedge] = static_cast<std::uint32_t>(lfa_region + 1);
  control::FastFlexOrchestrator orch(&net, cfg);
  orch.Deploy(demands);

  // ---- The elastic control loop (the experiment's subject) ----
  control::ElasticPolicy policy = options.policy;
  policy.placement.switch_capacity = TightSwitchCapacity();
  std::unique_ptr<control::ElasticOrchestrator> elastic;
  if (options.elastic) {
    elastic = std::make_unique<control::ElasticOrchestrator>(&net, &orch, policy, rec);
    elastic->Start();
  }

  // ---- Traffic ----
  std::vector<FlowId> bg_flows;
  for (const BgFlow& f : background) {
    sim::TcpParams tp;
    tp.mss = 1000;
    tp.init_cwnd = 2.0;
    tp.max_cwnd = 4e6 * 0.01 / (8.0 * tp.mss);  // application-bounded ~4 Mbps
    bg_flows.push_back(net.StartTcpFlow(f.client, f.dst, tp, f.at));
  }

  sim::TcpListenerConfig lc;
  lc.download_bytes = 50'000;
  lc.backlog = 32;
  lc.evict_oldest_when_full = true;  // SYN-cache victim, as in syn_flood_fig
  sim::Host* victim_host = net.host_at(victim);
  auto listener_owned = std::make_unique<sim::TcpListener>(&net, victim_host, lc);
  sim::TcpListener* listener = listener_owned.get();
  victim_host->AttachListener(std::move(listener_owned));

  // Legitimate downloads from the victim's ring neighbors, scheduled
  // deterministically across the whole run (before, during, after flood).
  std::vector<FlowId> sessions;
  {
    sim::HandshakeParams hp;
    int i = 0;
    for (const int r : {(syn_region + R - 1) % R, (syn_region + 1) % R}) {
      for (NodeId cl : clients[static_cast<std::size_t>(r)]) {
        for (int j = 0; j < 40; ++j) {
          const SimTime at = 500 * kMillisecond + static_cast<SimTime>(j) * kSecond +
                             static_cast<SimTime>(i) * 137 * kMillisecond;
          if (at >= options.duration) continue;
          const FlowId f = net.StartSynSession(cl, victim, hp, at);
          if (f != kInvalidFlow) sessions.push_back(f);
        }
        ++i;
      }
    }
  }

  // ---- Attacks ----
  std::unique_ptr<attacks::CrossfireAttacker> lfa_attacker;
  std::unique_ptr<attacks::SynFloodAttacker> syn_attacker;
  if (options.attacks) {
    attacks::CrossfireConfig lfa;
    lfa.bots = bots;
    lfa.decoys = decoys;
    lfa.map_at = 1 * kSecond;
    lfa.attack_at = options.attack_at;
    lfa.flows_per_target = 250;
    lfa_attacker = std::make_unique<attacks::CrossfireAttacker>(&net, lfa);
    lfa_attacker->Start();
    attacks::CrossfireAttacker* lfa_raw = lfa_attacker.get();
    net.events().ScheduleAfter(options.attack_stop, [lfa_raw] { lfa_raw->Stop(); });

    attacks::SynFloodConfig flood;
    flood.bots = syn_bots;
    flood.victim = victim;
    flood.syn_rate_per_bot = 4000.0;
    flood.start = options.attack_at;
    flood.stop = options.attack_stop;
    flood.seed = options.seed ^ 0xa77ac4e5ULL;
    syn_attacker = std::make_unique<attacks::SynFloodAttacker>(&net, flood);
    syn_attacker->Start();
  }

  // ---- Samplers: peak mode fractions and peak mitigation counters.
  // Mitigation modules are torn down post-attack (their counters die with
  // them), so the 100 ms sampler tracks the running maxima.
  MultiTenantResult result;
  {
    auto sampler = std::make_shared<std::function<void()>>();
    std::weak_ptr<std::function<void()>> weak = sampler;
    sim::Network* net_p = &net;
    control::FastFlexOrchestrator* orch_p = &orch;
    MultiTenantResult* res_p = &result;
    const std::uint32_t lfa_label = static_cast<std::uint32_t>(lfa_region + 1);
    const std::uint32_t syn_label = static_cast<std::uint32_t>(syn_region + 1);
    const std::vector<NodeId> lfa_switches = {agg[static_cast<std::size_t>(lfa_region)],
                                              edge[static_cast<std::size_t>(lfa_region)],
                                              dedge};
    const std::vector<NodeId> syn_switches = {agg[static_cast<std::size_t>(syn_region)],
                                              edge[static_cast<std::size_t>(syn_region)]};
    *sampler = [net_p, orch_p, res_p, lfa_label, syn_label, lfa_switches, syn_switches,
                weak] {
      res_p->lfa_mode_frac_peak =
          std::max(res_p->lfa_mode_frac_peak,
                   orch_p->FractionModeActive(dataplane::mode::kLfaReroute, lfa_label));
      res_p->syn_mode_frac_peak =
          std::max(res_p->syn_mode_frac_peak,
                   orch_p->FractionModeActive(dataplane::mode::kSynDefense, syn_label));
      std::uint64_t drops = 0;
      for (NodeId sw : lfa_switches) {
        if (auto* d = orch_p->dropper(sw)) drops += d->dropped();
      }
      res_p->illusion_drops = std::max(res_p->illusion_drops, drops);
      std::uint64_t cookies = 0, validated = 0;
      for (NodeId sw : syn_switches) {
        if (auto* p = orch_p->syn_proxy(sw)) {
          cookies += p->cookies_sent();
          validated += p->handshakes_validated();
        }
      }
      res_p->cookies_sent = std::max(res_p->cookies_sent, cookies);
      res_p->handshakes_validated = std::max(res_p->handshakes_validated, validated);
      if (auto self = weak.lock()) {
        net_p->events().ScheduleAfter(100 * kMillisecond, [self] { (*self)(); });
      }
    };
    net.events().ScheduleAfter(100 * kMillisecond, [sampler] { (*sampler)(); });
  }

  // ---- Run ----
  net.RunUntil(options.duration);

  // ---- Results ----
  result.events_processed = net.TotalEventsProcessed();
  result.sessions = static_cast<int>(sessions.size());
  for (FlowId f : sessions) {
    result.delivered_bytes += net.flow_stats(f).delivered_bytes;
    const NodeId client = net.flow_endpoints(f).src;
    sim::Host* host = net.host_at(client);
    if (host == nullptr) continue;
    auto* hc = dynamic_cast<sim::HandshakeClient*>(host->endpoint(f));
    if (hc == nullptr) continue;
    if (hc->established()) ++result.established;
    if (hc->gave_up()) ++result.gave_up;
    if (hc->closed()) ++result.completed;
  }
  if (lfa_attacker != nullptr) {
    result.attacker_rolls = static_cast<int>(lfa_attacker->rolls().size());
  }
  if (syn_attacker != nullptr) result.flood_syns = syn_attacker->syns_sent();
  if (listener != nullptr) {
    result.victim_half_open_evictions = listener->half_open_evictions();
    result.victim_accepted = listener->accepted();
  }
  for (const auto& n : net.topology().nodes()) {
    if (n.kind != sim::NodeKind::kSwitch) continue;
    if (auto* det = orch.lfa_detector(n.id)) {
      const SimTime at = det->alarm_raised_at();
      if (at > 0 && (result.lfa_alarm_at == 0 || at < result.lfa_alarm_at)) {
        result.lfa_alarm_at = at;
      }
    }
  }

  if (elastic != nullptr) {
    const auto& totals = elastic->totals();
    result.epochs = totals.epochs;
    result.replans = totals.replans;
    result.scale_ups = totals.scale_ups;
    result.sheds = totals.sheds;
    result.teardowns = totals.teardowns;
    result.install_rejects = totals.install_rejects;
    result.over_budget = totals.over_budget;
    const auto ups = rec->trace().EventsWithPrefix("elastic.scale_up.");
    if (!ups.empty()) result.first_scale_up_at = ups.front()->t;
    const auto downs = rec->trace().EventsWithPrefix("elastic.teardown.");
    if (!downs.empty()) result.last_teardown_at = downs.back()->t;
    for (const auto& [sw, names] : elastic->loop_installed()) {
      if (!names.empty()) result.retired = false;
    }
    elastic->Stop();
  }

  if (options.recorder != nullptr) {
    telemetry::Recorder& r = *options.recorder;
    net.CollectTelemetry(r);
    orch.CollectTelemetry(r);
    if (elastic != nullptr) elastic->CollectTelemetry(r);
    auto& m = r.metrics();
    m.GetCounter("mt.sessions").Set(static_cast<std::uint64_t>(result.sessions));
    m.GetCounter("mt.completed").Set(static_cast<std::uint64_t>(result.completed));
    m.GetCounter("mt.delivered_bytes").Set(result.delivered_bytes);
    m.GetCounter("mt.flood_syns").Set(result.flood_syns);
    m.GetCounter("mt.illusion_drops").Set(result.illusion_drops);
    m.GetCounter("mt.cookies_sent").Set(result.cookies_sent);
    m.GetGauge("mt.lfa_mode_frac_peak").Set(result.lfa_mode_frac_peak);
    m.GetGauge("mt.syn_mode_frac_peak").Set(result.syn_mode_frac_peak);
    // The run is over; detach so the recorder cannot dangle past `net`.
    net.SetTelemetry(nullptr);
  }
  return result;
}

}  // namespace fastflex::scenarios
