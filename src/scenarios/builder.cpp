#include "scenarios/builder.h"

#include <algorithm>
#include <functional>
#include <string_view>
#include <utility>

#include "boosters/registry.h"
#include "control/routes.h"

namespace fastflex::scenarios {

ScenarioBuilder& ScenarioBuilder::Seed(std::uint64_t seed) {
  seed_ = seed;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::Defense(DefenseKind defense) {
  defense_ = defense;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::Boosters(std::vector<std::string> names) {
  boosters_ = std::move(names);
  boosters_set_ = true;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::EnableInt(bool on) {
  enable_int_ = on;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::Ablation(bool obfuscation, bool dropping) {
  enable_obfuscation_ = obfuscation;
  enable_dropping_ = dropping;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::RerouteTuning(bool reroute_all, bool sticky) {
  reroute_all_ = reroute_all;
  sticky_reroute_ = sticky;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::AttackAt(SimTime at) {
  attack_at_ = at;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::AttackFlows(int flows) {
  attack_flows_ = flows;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::SdnEpoch(SimTime epoch) {
  sdn_epoch_ = epoch;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::SynFlood(SynFloodFigParams params) {
  syn_params_ = params;
  syn_set_ = true;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::Harden(bool on) {
  harden_ = on;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::TuneOrchestrator(
    std::function<void(control::OrchestratorConfig&)> fn) {
  tune_ = std::move(fn);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::Faults(fault::FaultPlan plan) {
  faults_ = std::move(plan);
  faults_set_ = true;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::Record(telemetry::Recorder* recorder) {
  recorder_ = recorder;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::SampleModes(std::uint32_t bits) {
  sample_bits_ = bits;
  return *this;
}

BuiltScenario ScenarioBuilder::Build() {
  BuiltScenario s;
  s.h = BuildHotnetsTopology();
  s.net = std::make_unique<sim::Network>(s.h.topo, seed_);
  s.net->EnableLinkSampling(10 * kMillisecond);

  if (recorder_ != nullptr) s.net->SetTelemetry(recorder_);

  if (syn_set_) {
    // Legitimate load is handshake sessions (scheduled below, once routes
    // exist); TE still needs a demand per client so the stable paths toward
    // the victim get laid out exactly as in the flow-based experiments.
    for (NodeId c : s.h.clients) {
      s.normal.demands.push_back(scheduler::Demand{c, s.h.victim, 2e6, kInvalidFlow});
    }
    sim::TcpListenerConfig lc;
    lc.download_bytes = syn_params_.download_bytes;
    lc.backlog = syn_params_.backlog;
    lc.evict_oldest_when_full = true;  // SYN-cache victim, not a 1990s stack
    sim::Host* victim = s.net->host_at(s.h.victim);
    auto listener = std::make_unique<sim::TcpListener>(s.net.get(), victim, lc);
    s.listener = listener.get();
    victim->AttachListener(std::move(listener));
  } else {
    s.normal = StartNormalTraffic(*s.net, s.h);
  }

  const scheduler::TeOptions stable_te{.k_paths = 2, .refine_rounds = 2};

  if (defense_ == DefenseKind::kFastFlex) {
    control::OrchestratorConfig cfg;
    cfg.te = stable_te;
    cfg.recorder = recorder_;
    cfg.boosters = boosters_set_ ? boosters_ : boosters::DefaultBoosterSet();
    auto drop = [&cfg](std::string_view n) {
      std::erase_if(cfg.boosters, [n](const std::string& s) { return s == n; });
    };
    auto add = [&cfg](const char* n) {
      if (std::find(cfg.boosters.begin(), cfg.boosters.end(), n) == cfg.boosters.end()) {
        cfg.boosters.emplace_back(n);
      }
    };
    if (!enable_obfuscation_) drop("topology_obfuscation");
    if (!enable_dropping_) drop("packet_dropping");
    if (enable_int_) add("in_band_telemetry");
    if (syn_set_) {
      add("syn_defense");
      cfg.protected_dsts.push_back(s.net->topology().node(s.h.victim).address);
      cfg.syn_proxy.syn_rate_alarm = syn_params_.syn_rate_alarm;
      cfg.syn_proxy.syn_rate_clear = syn_params_.syn_rate_alarm / 10.0;
    }
    cfg.reroute.reroute_all = reroute_all_;
    cfg.reroute.sticky = sticky_reroute_;
    // The pre-hardening deployment (all four holes open at once) is the
    // adversarial bench's regression arm; Harden() just picks the preset.
    cfg.hardening = harden_ ? boosters::HardeningConfig::Hardened()
                            : boosters::HardeningConfig::Legacy();
    if (tune_) tune_(cfg);
    s.orchestrator = std::make_unique<control::FastFlexOrchestrator>(s.net.get(), cfg);
    s.orchestrator->Deploy(s.normal.demands,
                           [&h = s.h](sim::Network& n) { SpreadDecoyRoutes(n, h); });
  } else {
    control::InstallDstRoutes(*s.net);
    const auto te = scheduler::SolveTe(s.net->topology(), s.normal.demands, stable_te);
    control::InstallFlowRoutes(*s.net, s.normal.demands, te.paths);
    SpreadDecoyRoutes(*s.net, s.h);
    if (defense_ == DefenseKind::kBaselineSdn) {
      control::SdnControllerConfig sdn_cfg;
      sdn_cfg.epoch = sdn_epoch_;
      sdn_cfg.te = scheduler::TeOptions{.k_paths = 4, .refine_rounds = 2};
      s.sdn = std::make_unique<control::SdnTeController>(s.net.get(), sdn_cfg);
      s.sdn->Start();
    }
  }

  if (syn_set_) {
    // Deterministic legit-session schedule: client i starts session j at a
    // fixed offset (no RNG draws — Build() stays a pure function of its
    // settings).  The schedule spans the run so sessions keep arriving
    // before, during, and after the flood onset.
    sim::HandshakeParams hp;
    int i = 0;
    for (NodeId c : s.h.clients) {
      for (int j = 0; j < syn_params_.sessions_per_client; ++j) {
        const SimTime at = syn_params_.first_session +
                           static_cast<SimTime>(j) * syn_params_.session_interval +
                           static_cast<SimTime>(i) * 37 * kMillisecond;
        const FlowId f = s.net->StartSynSession(c, s.h.victim, hp, at);
        if (f != kInvalidFlow) s.sessions.push_back(f);
      }
      ++i;
    }
    if (syn_params_.syn_rate_per_bot > 0.0) {
      attacks::SynFloodConfig atk;
      atk.bots = s.h.bots;
      atk.victim = s.h.victim;
      atk.syn_rate_per_bot = syn_params_.syn_rate_per_bot;
      atk.spoof_pool = syn_params_.spoof_pool;
      atk.dst_port = syn_params_.dst_port;
      atk.start = attack_at_;
      atk.seed = seed_ ^ 0xa77ac4e5ULL;
      s.syn_attacker = std::make_unique<attacks::SynFloodAttacker>(s.net.get(), atk);
      s.syn_attacker->Start();
    }
  } else {
    attacks::CrossfireConfig atk;
    atk.bots = s.h.bots;
    atk.decoys = s.h.decoys;
    atk.attack_at = attack_at_;
    atk.flows_per_target = attack_flows_;
    s.attacker = std::make_unique<attacks::CrossfireAttacker>(s.net.get(), atk);
    s.attacker->Start();
  }

  if (faults_set_) {
    s.injector = std::make_unique<fault::FaultInjector>(s.net.get(), std::move(faults_));
    if (recorder_ != nullptr) s.injector->set_telemetry(recorder_);
    if (s.orchestrator != nullptr) {
      control::FastFlexOrchestrator* orch = s.orchestrator.get();
      s.injector->set_reboot_handler([orch](NodeId sw) { orch->HandleSwitchReboot(sw); });
    }
    s.injector->Arm();
  }

  // Sample when the defense modes became broadly active (FastFlex only).
  if (s.orchestrator != nullptr) {
    // The stored function holds only a weak self-reference; the queued
    // callbacks carry the strong refs, so the last unscheduled run frees it.
    auto sampler = std::make_shared<std::function<void()>>();
    std::weak_ptr<std::function<void()>> weak = sampler;
    sim::Network* net = s.net.get();
    std::shared_ptr<SimTime> active_at = s.modes_active_at_;
    const std::uint32_t bits = sample_bits_;
    *sampler = [net, active_at, orch = s.orchestrator.get(), bits, weak] {
      if (*active_at == 0 && orch->FractionModeActive(bits) >= 0.9) {
        *active_at = net->Now();
      }
      if (*active_at == 0) {
        if (auto self = weak.lock()) {
          net->events().ScheduleAfter(50 * kMillisecond, [self] { (*self)(); });
        }
      }
    };
    net->events().ScheduleAfter(50 * kMillisecond, [sampler] { (*sampler)(); });
  }

  return s;
}

}  // namespace fastflex::scenarios
