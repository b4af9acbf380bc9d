#include "scenarios/adversarial_fig.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "attacks/adaptive.h"
#include "sim/handshake.h"

namespace fastflex::scenarios {

namespace {

/// Fraction-of-samples counter the 100 ms false-positive sampler feeds.
struct FpCount {
  std::uint64_t hot = 0;
  std::uint64_t total = 0;
};

/// Samples `FractionModeActive(bit) >= 0.5` every 100 ms from `from` until
/// `until`.  Same weak-self idiom as the builder's activation sampler: the
/// queued callbacks hold the strong refs, so the chain frees itself.
void StartFpSampler(sim::Network* net, control::FastFlexOrchestrator* orch,
                    std::uint32_t bit, SimTime from, SimTime until,
                    std::shared_ptr<FpCount> fp) {
  auto tick = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak = tick;
  *tick = [net, orch, bit, until, fp, weak] {
    ++fp->total;
    if (orch->FractionModeActive(bit) >= 0.5) ++fp->hot;
    if (net->Now() + 100 * kMillisecond <= until) {
      if (auto self = weak.lock()) {
        net->events().ScheduleAfter(100 * kMillisecond, [self] { (*self)(); });
      }
    }
  };
  net->events().ScheduleAt(from + 100 * kMillisecond, [tick] { (*tick)(); });
}

/// Samples the max cuckoo-filter load factor across switches every 500 ms —
/// the cookie-mint strategy's "how full did the attacker get it" evidence.
void StartFilterLoadSampler(sim::Network* net, control::FastFlexOrchestrator* orch,
                            SimTime until, std::shared_ptr<double> max_load) {
  auto tick = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak = tick;
  *tick = [net, orch, until, max_load, weak] {
    for (const auto& node : net->topology().nodes()) {
      if (node.kind != sim::NodeKind::kSwitch) continue;
      if (auto* proxy = orch->syn_proxy(node.id)) {
        *max_load = std::max(*max_load, proxy->filter().LoadFactor());
      }
    }
    if (net->Now() + 500 * kMillisecond <= until) {
      if (auto self = weak.lock()) {
        net->events().ScheduleAfter(500 * kMillisecond, [self] { (*self)(); });
      }
    }
  };
  net->events().ScheduleAt(500 * kMillisecond, [tick] { (*tick)(); });
}

std::vector<NodeId> AllSwitches(const sim::Network& net) {
  std::vector<NodeId> out;
  for (const auto& node : net.topology().nodes()) {
    if (node.kind == sim::NodeKind::kSwitch) out.push_back(node.id);
  }
  return out;
}

}  // namespace

const char* AdvStrategyName(AdvStrategy s) {
  switch (s) {
    case AdvStrategy::kCollisionFlood: return "collision";
    case AdvStrategy::kModeForge: return "forge";
    case AdvStrategy::kCookieMint: return "mint";
    case AdvStrategy::kPulse: return "pulse";
  }
  return "unknown";
}

AdversarialFigResult RunAdversarialFig(const AdversarialFigOptions& o) {
  using dataplane::mode::kSynDefense;
  using dataplane::mode::kVolumetricFilter;

  ScenarioBuilder builder;
  SynFloodFigParams sp;

  // Per-strategy shaping.  All four ride the SYN-flood scenario skeleton
  // (handshake sessions as legitimate load, victim listener, syn_defense
  // deployed) because connection setup is the surface these adversaries
  // target; strategies that need a REAL flood as their detection baseline
  // (forge poisons its propagation, mint rides its mode activation) embed
  // the stock SynFloodAttacker on top.
  std::uint32_t fp_bit = 0;       // mode bit whose activity counts as a FP
  bool has_real_flood = false;    // strategy embeds a genuine SYN flood
  SimTime flood_at = 0;
  switch (o.strategy) {
    case AdvStrategy::kCollisionFlood:
      // No flood at all: any volumetric alarm is false by construction.
      // The volumetric booster is not in the default set and its stock
      // threshold (50 Mbit/s) sits above what the bots can push through a
      // sketch row; deploy it with a threshold the inflated estimate
      // clears but genuine victim-bound traffic (handshake ACKs) never
      // approaches.
      sp.syn_rate_per_bot = 0.0;
      fp_bit = kVolumetricFilter;
      builder.SampleModes(kVolumetricFilter);
      builder.TuneOrchestrator([](control::OrchestratorConfig& cfg) {
        if (std::find(cfg.boosters.begin(), cfg.boosters.end(),
                      "volumetric_ddos") == cfg.boosters.end()) {
          cfg.boosters.emplace_back("volumetric_ddos");
        }
        cfg.volumetric.dst_rate_alarm_bps = 8e6;
        cfg.volumetric.dst_rate_clear_bps = 2e6;
      });
      break;
    case AdvStrategy::kModeForge:
      // Forge first (false positive + epoch poison), real flood 10 s later
      // (the poisoned fabric's false negative).
      sp.syn_rate_per_bot = 1000.0;
      has_real_flood = true;
      flood_at = o.attack_at + 10 * kSecond;
      fp_bit = kVolumetricFilter;  // the forged bit; kSynDefense stays honest
      builder.AttackAt(flood_at);
      builder.SampleModes(kSynDefense);
      break;
    case AdvStrategy::kCookieMint:
      // A real flood holds kSynDefense active (the proxy is mode-gated);
      // the mint rides it.  Smaller filter + download keep the bounded mint
      // volume decisive without exploding the event count.
      sp.syn_rate_per_bot = 1000.0;
      sp.download_bytes = 10'000;
      has_real_flood = true;
      flood_at = o.attack_at;
      builder.AttackAt(flood_at);
      builder.SampleModes(kSynDefense);
      builder.TuneOrchestrator([](control::OrchestratorConfig& cfg) {
        cfg.syn_proxy.filter_buckets = 256;
      });
      break;
    case AdvStrategy::kPulse:
      // No sustained flood; every raise the pulser extracts is unwarranted.
      sp.syn_rate_per_bot = 0.0;
      fp_bit = kSynDefense;
      builder.SampleModes(kSynDefense);
      break;
  }

  builder.Seed(o.seed).Harden(o.hardened).SynFlood(sp).Record(o.recorder);
  BuiltScenario s = builder.Build();
  const Address victim_addr = s.net->topology().node(s.h.victim).address;

  // The adaptive attacker itself.
  std::unique_ptr<attacks::adaptive::CollisionFloodAttacker> collision;
  std::unique_ptr<attacks::adaptive::ModeForgeAttacker> forge;
  std::unique_ptr<attacks::adaptive::CookieMintAttacker> mint;
  std::unique_ptr<attacks::adaptive::PulseAttacker> pulse;
  switch (o.strategy) {
    case AdvStrategy::kCollisionFlood: {
      attacks::adaptive::CollisionFloodConfig cf;
      cf.bots = s.h.bots;
      cf.target = victim_addr;
      // The attacker plans against the compiled-in defaults — exactly what
      // an unsalted deployment runs, and exactly what a salted one doesn't.
      cf.sketch_seed = dataplane::CountMinSketch::kDefaultSeed;
      cf.sketch_width = 2048;
      cf.sketch_depth = 3;
      cf.pkts_per_s_per_bot = 3000.0;
      cf.start = o.attack_at;
      cf.seed = o.seed ^ 0xc0111de5ULL;
      collision = std::make_unique<attacks::adaptive::CollisionFloodAttacker>(
          s.net.get(), cf);
      collision->Start();
      break;
    }
    case AdvStrategy::kModeForge: {
      attacks::adaptive::ModeForgeConfig mf;
      mf.bots = s.h.bots;
      mf.claimed_origins = AllSwitches(*s.net);
      mf.mode_bit = kVolumetricFilter;
      mf.start = o.attack_at;
      forge = std::make_unique<attacks::adaptive::ModeForgeAttacker>(s.net.get(), mf);
      forge->Start();
      break;
    }
    case AdvStrategy::kCookieMint: {
      attacks::adaptive::CookieMintConfig cm;
      cm.bots = s.h.bots;
      cm.victim = victim_addr;
      cm.acks_per_s_per_bot = 150.0;
      cm.start = o.attack_at + 2 * kSecond;  // after the flood raised the mode
      cm.stop = o.attack_at + 12 * kSecond;
      cm.seed = o.seed ^ 0xacedc0deULL;
      mint = std::make_unique<attacks::adaptive::CookieMintAttacker>(s.net.get(), cm);
      mint->Start();
      break;
    }
    case AdvStrategy::kPulse: {
      attacks::adaptive::PulseConfig pc;
      pc.bots = s.h.bots;
      pc.victim = s.h.victim;
      pc.pulse_rate_per_bot = 3000.0;
      pc.on_duration = 50 * kMillisecond;
      pc.period = 2500 * kMillisecond;
      pc.start = o.attack_at;  // a check-grid multiple: bursts align
      pc.seed = o.seed ^ 0x9e15e777ULL;
      pulse = std::make_unique<attacks::adaptive::PulseAttacker>(s.net.get(), pc);
      pulse->Start();
      break;
    }
  }

  auto fp = std::make_shared<FpCount>();
  if (fp_bit != 0) {
    StartFpSampler(s.net.get(), s.orchestrator.get(), fp_bit, o.attack_at,
                   o.duration, fp);
  }
  auto max_load = std::make_shared<double>(0.0);
  StartFilterLoadSampler(s.net.get(), s.orchestrator.get(), o.duration, max_load);

  s.net->RunUntil(o.duration);

  AdversarialFigResult r;
  r.fp_frac = fp->total > 0 ? static_cast<double>(fp->hot) /
                                  static_cast<double>(fp->total)
                            : 0.0;
  r.detect_at = s.modes_active_at();
  r.real_attack_detected = has_real_flood && r.detect_at != 0;
  r.filter_load_max = *max_load;
  r.events_processed = s.net->TotalEventsProcessed();

  for (NodeId sw : AllSwitches(*s.net)) {
    if (auto* agent = s.orchestrator->agent(sw)) {
      r.mode_flips += agent->mode_applications();
      r.auth_rejects += agent->auth_rejects();
    }
    if (auto* det = s.orchestrator->syn_rate_detector(sw)) {
      r.raises_suppressed += det->raises_suppressed();
    }
    if (auto* proxy = s.orchestrator->syn_proxy(sw)) {
      r.admissions_policed += proxy->admissions_policed();
      r.filter_inserts += proxy->filter().insertions();
      r.filter_insert_failures += proxy->filter().failed_inserts();
    }
  }

  r.sessions = static_cast<int>(s.sessions.size());
  for (FlowId f : s.sessions) {
    r.delivered_bytes += s.net->flow_stats(f).delivered_bytes;
    const NodeId client = s.net->flow_endpoints(f).src;
    sim::Host* host = s.net->host_at(client);
    if (host == nullptr) continue;
    auto* hc = dynamic_cast<sim::HandshakeClient*>(host->endpoint(f));
    if (hc == nullptr) continue;
    if (hc->established()) ++r.established;
    if (hc->closed()) ++r.completed;
  }

  if (collision != nullptr) r.attack_packets = collision->packets_sent();
  if (forge != nullptr) r.attack_packets = forge->probes_sent();
  if (mint != nullptr) r.attack_packets = mint->acks_sent();
  if (pulse != nullptr) {
    r.attack_packets = pulse->syns_sent();
    r.pulses_fired = pulse->pulses_fired();
  }
  if (s.syn_attacker != nullptr) r.flood_syns = s.syn_attacker->syns_sent();

  if (o.recorder != nullptr) {
    telemetry::Recorder& rec = *o.recorder;
    s.net->CollectTelemetry(rec);
    s.orchestrator->CollectTelemetry(rec);
    auto& m = rec.metrics();
    m.GetGauge("advfig.fp_frac").Set(r.fp_frac);
    m.GetGauge("advfig.detect_s").Set(ToSeconds(r.detect_at));
    m.GetCounter("advfig.mode_flips").Set(r.mode_flips);
    m.GetCounter("advfig.auth_rejects").Set(r.auth_rejects);
    m.GetCounter("advfig.raises_suppressed").Set(r.raises_suppressed);
    m.GetCounter("advfig.admissions_policed").Set(r.admissions_policed);
    m.GetCounter("advfig.attack_packets").Set(r.attack_packets);
    m.GetCounter("advfig.filter_inserts").Set(r.filter_inserts);
    m.GetCounter("advfig.filter_insert_failures").Set(r.filter_insert_failures);
    m.GetGauge("advfig.filter_load_max").Set(r.filter_load_max);
    m.GetCounter("advfig.completed").Set(static_cast<std::uint64_t>(r.completed));
    m.GetCounter("advfig.delivered_bytes").Set(r.delivered_bytes);
    // The run is over; detach so the recorder cannot dangle past `net`.
    s.net->SetTelemetry(nullptr);
  }
  return r;
}

}  // namespace fastflex::scenarios
