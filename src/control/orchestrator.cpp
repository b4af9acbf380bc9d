#include "control/orchestrator.h"

#include <algorithm>

#include "boosters/registry.h"
#include "sim/switch_node.h"
#include "util/hash.h"
#include "util/logging.h"

namespace fastflex::control {

namespace {

// Adds the counters `module` keeps on switch `sw` to `into`, keyed
// "switch.<sw>.<module>.<counter>".  The SYN-defense modules and the mode
// agent's flood authenticator keep per-switch counters; other modules add
// nothing.
void AddModuleCounters(NodeId sw, const dataplane::Ppm& module,
                       std::map<std::string, std::uint64_t>& into) {
  const std::string p = telemetry::Join("switch", sw, module.name()) + ".";
  if (const auto* det = dynamic_cast<const boosters::SynRateDetectorPpm*>(&module)) {
    into[p + "raises_suppressed"] += det->raises_suppressed();
  } else if (const auto* proxy = dynamic_cast<const boosters::SynProxyPpm*>(&module)) {
    into[p + "cookies_sent"] += proxy->cookies_sent();
    into[p + "handshakes_validated"] += proxy->handshakes_validated();
    into[p + "invalid_cookies"] += proxy->invalid_cookies();
    into[p + "filter_inserts"] += proxy->filter_inserts();
    into[p + "filter_insert_failures"] += proxy->filter_insert_failures();
    into[p + "filter_deletes"] += proxy->filter_deletes();
    into[p + "idle_evictions"] += proxy->idle_evictions();
    into[p + "policed_drops"] += proxy->policed_drops();
    into[p + "admissions_policed"] += proxy->admissions_policed();
  } else if (const auto* xlate = dynamic_cast<const boosters::SeqTranslatePpm*>(&module)) {
    into[p + "translations_established"] += xlate->translations_established();
    into[p + "seq_translated"] += xlate->seq_translated();
  } else if (const auto* agent = dynamic_cast<const runtime::ModeProtocolPpm*>(&module)) {
    into[p + "auth_rejects"] += agent->auth_rejects();
  }
}

}  // namespace

FastFlexOrchestrator::FastFlexOrchestrator(sim::Network* net, OrchestratorConfig config)
    : net_(net), config_(std::move(config)) {}

FastFlexOrchestrator::~FastFlexOrchestrator() {
  // Pipelines are owned here but installed as raw processors on switches;
  // detach before destruction so no switch keeps a dangling pointer.
  for (auto& [sw_id, pipe] : pipelines_) {
    if (sim::SwitchNode* sw = net_->switch_at(sw_id)) sw->SetProcessor(nullptr);
  }
}

void FastFlexOrchestrator::Deploy(const std::vector<scheduler::Demand>& stable_demands,
                                  const RouteCustomizer& customize) {
  // ---- Offline: routes for the default mode ----
  InstallDstRoutes(*net_);
  te_ = scheduler::SolveTe(net_->topology(), stable_demands, config_.te);
  InstallFlowRoutes(*net_, stable_demands, te_.paths);
  if (customize) customize(*net_);
  host_edge_ = BuildHostEdgeMap(*net_);
  canonical_ = ComputeCanonicalPaths(*net_);

  // ---- Offline: booster resolution + program analysis + placement ----
  std::vector<std::string> unknown;
  const auto defs = boosters::Registry::Global().Resolve(config_.boosters, &unknown);
  for (const auto& name : unknown) {
    FF_LOG(kError) << "unknown booster '" << name << "' — skipped (known: "
                   << [] {
                        std::string all;
                        for (const auto& n : boosters::Registry::Global().Names()) {
                          all += all.empty() ? n : ", " + n;
                        }
                        return all;
                      }() << ")";
  }
  deployed_.clear();
  std::vector<analyzer::BoosterSpec> specs;
  for (const auto* def : defs) {
    deployed_.push_back(def->name);
    specs.push_back(def->spec());
  }
  const bool int_deployed =
      std::find(deployed_.begin(), deployed_.end(), "in_band_telemetry") != deployed_.end();
  alarm_extra_modes_ = int_deployed ? dataplane::mode::kIntTelemetry : 0u;

  merged_ = analyzer::Merge(specs);
  savings_ = analyzer::ComputeSavings(specs, merged_);
  const auto clusters = analyzer::ClusterGraph(
      merged_, config_.placement.switch_capacity - config_.placement.routing_reserve);
  placement_ = scheduler::PlaceClusters(net_->topology(), clusters, te_.paths,
                                        config_.placement);

  // ---- Live: pervasive per-switch pipelines ----
  // Per-run secrets, derived from the scenario seed: deterministic for
  // same-seed replays, unpredictable to an attacker who only knows the
  // binary.  The mode-auth key is written back into config_ so BuildPipeline
  // and later introspection both see the effective value.
  if (config_.hardening.authenticate_floods && config_.mode_protocol.auth_key == 0) {
    config_.mode_protocol.auth_key =
        DeriveSalt(net_->seed(), FnvHash("fastflex.mode_auth"));
  }
  // The env is kept as a member: InstallBooster replays registry hooks
  // against it long after Deploy() returns, and every pointer in it targets
  // config_ or a shared map with our lifetime.
  boosters::DeployEnv& env = env_;
  env = boosters::DeployEnv{};
  env.hash_salt = config_.hardening.salt_hashes
                      ? DeriveSalt(net_->seed(), FnvHash("fastflex.hash_salt"))
                      : 0;
  env.hardening = &config_.hardening;
  env.net = net_;
  env.host_edge = host_edge_;
  env.canonical = canonical_;
  env.recorder = config_.recorder;
  env.int_collector = config_.int_collector;
  if (env.int_collector == nullptr && config_.recorder != nullptr) {
    env.int_collector = &config_.recorder->int_collector();
  }
  env.lfa = &config_.lfa;
  env.reroute = &config_.reroute;
  env.volumetric = &config_.volumetric;
  env.rate_limit = &config_.rate_limit;
  env.hop_count = &config_.hop_count;
  env.syn_proxy = &config_.syn_proxy;
  env.failover = &config_.failover;
  env.int_match = &config_.int_match;
  env.protected_dsts = &config_.protected_dsts;
  env.rate_limit_dsts = &config_.rate_limit_dsts;
  env.rate_limit_service_key = config_.rate_limit_service_key;

  for (const auto& n : net_->topology().nodes()) {
    if (n.kind == sim::NodeKind::kSwitch) BuildPipeline(n.id, env, defs);
  }

  std::unordered_map<NodeId, runtime::ModeProtocolPpm*> agent_ptrs;
  std::unordered_map<NodeId, runtime::StateCollectorPpm*> collector_ptrs;
  for (const auto& [id, a] : agents_) agent_ptrs[id] = a.get();
  for (const auto& [id, c] : collectors_) collector_ptrs[id] = c.get();
  scaling_ = std::make_unique<runtime::ScalingManager>(net_, std::move(agent_ptrs),
                                                       std::move(collector_ptrs));
  if (config_.recorder != nullptr) scaling_->SetTelemetry(config_.recorder);

  FF_LOG(kInfo) << "FastFlex deployed: " << specs.size() << " boosters, "
                << merged_.ppms.size() << " merged PPMs (" << savings_.modules_before
                << " before sharing), " << pipelines_.size() << " switch pipelines";
}

void FastFlexOrchestrator::BuildPipeline(NodeId sw_id, const boosters::DeployEnv& env,
                                         const std::vector<const boosters::BoosterDef*>& defs) {
  sim::SwitchNode* sw = net_->switch_at(sw_id);
  auto region_it = config_.regions.find(sw_id);
  if (region_it != config_.regions.end()) sw->set_region(region_it->second);

  auto pipe = std::make_unique<dataplane::Pipeline>(config_.switch_capacity);
  dataplane::Pipeline* p = pipe.get();

  // Mode agent first: control probes are handled before anything else.
  auto agent = std::make_shared<runtime::ModeProtocolPpm>(net_, sw, p, config_.mode_protocol);
  p->Install(agent);
  agents_[sw_id] = agent;

  if (config_.recorder != nullptr) {
    agent->SetTelemetry(config_.recorder);
    p->SetTelemetry(config_.recorder,
                    telemetry::Join("switch", sw_id, "pipeline"));
  }

  auto parser = std::make_shared<boosters::ParserPpm>();
  p->InstallShared(parser);

  // Shared components: the same instances back every booster on this switch.
  boosters::SwitchCtx ctx;
  ctx.sw = sw;
  ctx.pipe = p;
  ctx.bloom = std::static_pointer_cast<boosters::SuspiciousSrcBloomPpm>(
      p->InstallShared(std::make_shared<boosters::SuspiciousSrcBloomPpm>()));
  ctx.dst_sketch = std::static_pointer_cast<boosters::DstFlowCountSketchPpm>(
      p->InstallShared(std::make_shared<boosters::DstFlowCountSketchPpm>(
          1024, 3,
          boosters::StructSalt(env, sw_id, FnvHash("fastflex.dst_sketch"),
                               dataplane::CountMinSketch::kDefaultSeed))));

  // Detector alarms additionally raise the INT mode when INT is deployed, so
  // hop stamping turns on in the same data-plane flood as the mitigation —
  // the diagnosis arrives with the defense, not after it.
  runtime::ModeProtocolPpm* agent_raw = agent.get();
  const std::uint32_t extra = alarm_extra_modes_;
  ctx.raise_alarm = [agent_raw, extra](std::uint32_t attack, std::uint32_t modes, bool on) {
    agent_raw->RaiseAlarm(attack, modes | extra, on);
  };
  ctx.mode_epoch = [agent_raw] { return agent_raw->mode_applications(); };

  // Boosters in registry phase order; Install rejects (capacity) surface as
  // nullptr module lookups, same as before.
  for (const auto* def : defs) def->install(env, ctx);

  auto collector = std::make_shared<runtime::StateCollectorPpm>(net_, sw);
  p->Install(collector);
  collectors_[sw_id] = collector;

  p->InstallShared(std::make_shared<boosters::DeparserPpm>());

  if (!p->used().FitsIn(p->capacity())) {
    FF_LOG(kError) << "pipeline over capacity on switch " << sw_id;
  }
  // Boosters whose headline module must never lose the capacity fight.
  const std::pair<const char*, const char*> required[] = {
      {"lfa_detection", "lfa_detector"}, {"congestion_reroute", "congestion_reroute"}};
  for (const auto& [booster, module] : required) {
    if (std::find(deployed_.begin(), deployed_.end(), booster) != deployed_.end() &&
        p->Find(module) == nullptr) {
      FF_LOG(kError) << "module " << module << " failed to install on switch " << sw_id
                     << " (capacity " << p->capacity().ToString() << ", used "
                     << p->used().ToString() << ")";
    }
  }

  sw->SetProcessor(p);
  pipelines_[sw_id] = std::move(pipe);
  switch_ctx_[sw_id] = ctx;
}

bool FastFlexOrchestrator::BoosterInstalled(NodeId sw, const std::string& booster) const {
  const boosters::BoosterDef* def = boosters::Registry::Global().Find(booster);
  auto it = pipelines_.find(sw);
  if (def == nullptr || def->modules.empty() || it == pipelines_.end()) return false;
  for (const auto& m : def->modules) {
    if (it->second->Find(m) == nullptr) return false;
  }
  return true;
}

bool FastFlexOrchestrator::InstallBooster(NodeId sw, const std::string& booster) {
  const boosters::BoosterDef* def = boosters::Registry::Global().Find(booster);
  auto ctx_it = switch_ctx_.find(sw);
  if (def == nullptr || def->modules.empty() || ctx_it == switch_ctx_.end()) return false;
  if (BoosterInstalled(sw, booster)) return true;
  def->install(env_, ctx_it->second);
  if (BoosterInstalled(sw, booster)) return true;
  // Partial landing (some modules fit, one lost the capacity fight): roll
  // back so the caller sees all-or-nothing and can shed + retry.
  for (const auto& m : def->modules) ctx_it->second.pipe->Uninstall(m);
  return false;
}

bool FastFlexOrchestrator::UninstallBooster(NodeId sw, const std::string& booster) {
  const boosters::BoosterDef* def = boosters::Registry::Global().Find(booster);
  auto it = pipelines_.find(sw);
  if (def == nullptr || it == pipelines_.end()) return false;
  bool removed = false;
  for (const auto& m : def->modules) {
    if (const dataplane::Ppm* module = it->second->Find(m)) {
      AddModuleCounters(sw, *module, retired_counters_);
    }
    removed |= it->second->Uninstall(m);
  }
  return removed;
}

void FastFlexOrchestrator::HandleSwitchReboot(NodeId sw) {
  auto pit = pipelines_.find(sw);
  if (pit != pipelines_.end()) pit->second->ResetState();
  auto ait = agents_.find(sw);
  if (ait != agents_.end()) ait->second->RequestSync();
}

dataplane::Pipeline* FastFlexOrchestrator::pipeline(NodeId sw) const {
  auto it = pipelines_.find(sw);
  return it == pipelines_.end() ? nullptr : it->second.get();
}
runtime::ModeProtocolPpm* FastFlexOrchestrator::agent(NodeId sw) const {
  auto it = agents_.find(sw);
  return it == agents_.end() ? nullptr : it->second.get();
}
runtime::StateCollectorPpm* FastFlexOrchestrator::collector(NodeId sw) const {
  auto it = collectors_.find(sw);
  return it == collectors_.end() ? nullptr : it->second.get();
}
dataplane::Ppm* FastFlexOrchestrator::FindModule(NodeId sw, const char* name) const {
  auto it = pipelines_.find(sw);
  return it == pipelines_.end() ? nullptr : it->second->Find(name);
}
boosters::LfaDetectorPpm* FastFlexOrchestrator::lfa_detector(NodeId sw) const {
  return static_cast<boosters::LfaDetectorPpm*>(FindModule(sw, "lfa_detector"));
}
boosters::CongestionReroutePpm* FastFlexOrchestrator::reroute(NodeId sw) const {
  return static_cast<boosters::CongestionReroutePpm*>(FindModule(sw, "congestion_reroute"));
}
boosters::PacketDropperPpm* FastFlexOrchestrator::dropper(NodeId sw) const {
  return static_cast<boosters::PacketDropperPpm*>(FindModule(sw, "packet_dropper"));
}
boosters::TopologyObfuscatorPpm* FastFlexOrchestrator::obfuscator(NodeId sw) const {
  return static_cast<boosters::TopologyObfuscatorPpm*>(FindModule(sw, "topology_obfuscator"));
}
boosters::HeavyHitterFilterPpm* FastFlexOrchestrator::hh_filter(NodeId sw) const {
  return static_cast<boosters::HeavyHitterFilterPpm*>(FindModule(sw, "heavy_hitter_filter"));
}
boosters::GlobalRateLimiterPpm* FastFlexOrchestrator::rate_limiter(NodeId sw) const {
  return static_cast<boosters::GlobalRateLimiterPpm*>(FindModule(sw, "global_rate_limiter"));
}
boosters::SynRateDetectorPpm* FastFlexOrchestrator::syn_rate_detector(NodeId sw) const {
  return static_cast<boosters::SynRateDetectorPpm*>(FindModule(sw, "syn_rate_detector"));
}
boosters::SynProxyPpm* FastFlexOrchestrator::syn_proxy(NodeId sw) const {
  return static_cast<boosters::SynProxyPpm*>(FindModule(sw, "syn_proxy"));
}
boosters::SeqTranslatePpm* FastFlexOrchestrator::seq_translate(NodeId sw) const {
  return static_cast<boosters::SeqTranslatePpm*>(FindModule(sw, "seq_translate"));
}
dataplane::IntSourcePpm* FastFlexOrchestrator::int_source(NodeId sw) const {
  return static_cast<dataplane::IntSourcePpm*>(FindModule(sw, "int_source"));
}
dataplane::IntTransitPpm* FastFlexOrchestrator::int_transit(NodeId sw) const {
  return static_cast<dataplane::IntTransitPpm*>(FindModule(sw, "int_transit"));
}
dataplane::IntSinkPpm* FastFlexOrchestrator::int_sink(NodeId sw) const {
  return static_cast<dataplane::IntSinkPpm*>(FindModule(sw, "int_sink"));
}
dataplane::FastFailoverPpm* FastFlexOrchestrator::fast_failover(NodeId sw) const {
  return static_cast<dataplane::FastFailoverPpm*>(FindModule(sw, "fast_failover"));
}

void FastFlexOrchestrator::CollectTelemetry(telemetry::Recorder& recorder) const {
  auto& m = recorder.metrics();
  std::map<std::string, std::uint64_t> module_counters = retired_counters_;
  for (const auto& [sw_id, pipe] : pipelines_) {
    pipe->CollectTelemetry(recorder, telemetry::Join("switch", sw_id, "pipeline"));
    for (const auto& module : pipe->modules()) {
      AddModuleCounters(sw_id, *module, module_counters);
    }
    // Connection-tracking filter occupancy, previously visible only inside
    // the proxy: a load factor creeping toward the kick-failure knee is the
    // first sign an ACK flood is filling the table.  Keyed per switch and
    // emitted only where a proxy runs, so non-SYN runs keep their key set.
    if (const auto* sp = syn_proxy(sw_id)) {
      m.GetGauge(telemetry::Join("switch", sw_id, "syn_proxy.filter_load"))
          .Set(sp->filter().LoadFactor());
    }
  }
  for (const auto& [name, value] : module_counters) m.GetCounter(name).Set(value);
  std::uint64_t alarms = 0, probes = 0, applications = 0;
  std::uint64_t retries = 0, resyncs = 0, auth_rejects = 0;
  for (const auto& [sw_id, agent] : agents_) {
    alarms += agent->alarms_raised();
    probes += agent->probes_forwarded();
    applications += agent->mode_applications();
    retries += agent->flood_retries();
    resyncs += agent->resyncs();
    auth_rejects += agent->auth_rejects();
  }
  m.GetCounter("mode_protocol.alarms_raised").Set(alarms);
  m.GetCounter("mode_protocol.probes_forwarded").Set(probes);
  m.GetCounter("mode_protocol.mode_applications").Set(applications);
  m.GetCounter("mode_protocol.flood_retries").Set(retries);
  m.GetCounter("mode_protocol.resyncs").Set(resyncs);
  m.GetCounter("mode_protocol.auth_rejects").Set(auth_rejects);
}

double FastFlexOrchestrator::FractionModeActive(std::uint32_t bits,
                                                std::uint32_t region) const {
  std::size_t total = 0;
  std::size_t active = 0;
  for (const auto& [sw_id, pipe] : pipelines_) {
    const sim::SwitchNode* sw = net_->switch_at(sw_id);
    if (region != 0 && sw->region() != region) continue;
    ++total;
    if (pipe->ModeActive(bits)) ++active;
  }
  return total == 0 ? 0.0 : static_cast<double>(active) / static_cast<double>(total);
}

}  // namespace fastflex::control
