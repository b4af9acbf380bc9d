// FastFlexOrchestrator: the offline compilation pipeline of Figure 1 plus
// live deployment.
//
//   (a) collect booster specs (dataflow graphs + resource demands);
//   (b) run the program analyzer: merge graphs, identify shared PPMs;
//   (c) solve default-mode TE and the defense placement;
//   (d) install routes and per-switch pipelines (mode agent, shared
//       components, detectors, mitigation modules) — with
//       Pipeline::InstallShared deduplicating equivalent modules exactly as
//       the analyzer predicted;
//   (e) get out of the way: at runtime all mode changes are data-plane-only.
//
// The live deployment is pervasive (every switch hosts the defense stack,
// the paper's "maximally distributed" opportunity); the placement solver's
// constrained solutions are exercised by the placement tests and benches.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include <string>

#include "analyzer/analyzer.h"
#include "boosters/config.h"
#include "boosters/dropper.h"
#include "boosters/heavy_hitter.h"
#include "boosters/hop_count.h"
#include "boosters/lfa_detector.h"
#include "boosters/obfuscator.h"
#include "boosters/rate_limiter.h"
#include "boosters/registry.h"
#include "boosters/reroute.h"
#include "boosters/shared_ppms.h"
#include "boosters/syn_proxy.h"
#include "control/routes.h"
#include "dataplane/failover.h"
#include "dataplane/int_ppm.h"
#include "dataplane/pipeline.h"
#include "runtime/mode_protocol.h"
#include "runtime/scaling.h"
#include "runtime/state_transfer.h"
#include "scheduler/placement.h"
#include "scheduler/te.h"
#include "sim/network.h"

namespace fastflex::control {

struct OrchestratorConfig {
  boosters::LfaConfig lfa;
  boosters::RerouteConfig reroute;
  boosters::VolumetricConfig volumetric;
  boosters::RateLimitConfig rate_limit;
  boosters::HopCountConfig hop_count;
  boosters::SynProxyConfig syn_proxy;
  runtime::ModeProtocolConfig mode_protocol;
  dataplane::FailoverConfig failover;
  scheduler::TeOptions te;
  scheduler::PlacementOptions placement;
  dataplane::ResourceVector switch_capacity = dataplane::DefaultSwitchCapacity();

  /// Which boosters to deploy, by registry name, e.g. {"lfa_detection",
  /// "volumetric_ddos", "fast_failover"} — see boosters/registry.h for the
  /// catalog.  Install order across switches follows registry phases, not
  /// list order.  Unknown names are logged errors and skipped.
  /// Appending "in_band_telemetry" gates INT stamping behind
  /// mode::kIntTelemetry, which detector alarms raise alongside their
  /// mitigation modes — so hop records flow exactly while there is an
  /// attack to diagnose.  The Section 4.2 ablations (steps 4 and 5) remove
  /// "topology_obfuscation" / "packet_dropping" from this list.
  std::vector<std::string> boosters = boosters::DefaultBoosterSet();

  /// Adaptive-adversary hardening posture, Hardened() by default; pass
  /// boosters::HardeningConfig::Legacy() to rebuild the pre-hardening
  /// deployment bench_adversarial measures as its regression arm.  See
  /// boosters/config.h for the knobs.
  boosters::HardeningConfig hardening = boosters::HardeningConfig::Hardened();

  dataplane::IntMatchRule int_match;
  /// Journey destination for the INT sinks.  When null, falls back to
  /// `recorder`'s built-in collector (and to none if that is null too).
  telemetry::IntCollector* int_collector = nullptr;

  std::vector<Address> protected_dsts;   // volumetric / SYN-defense watch list
  std::vector<Address> rate_limit_dsts;  // distributed rate-limit service
  std::uint32_t rate_limit_service_key = 7;

  /// Region labels for co-existing modes; unlisted switches get region 0.
  std::unordered_map<NodeId, std::uint32_t> regions;

  /// When set, every pipeline, mode agent, and the scaling manager is wired
  /// to this recorder at deployment (mode-change timeline, per-pipeline walk
  /// counters, repurposing spans).  Nullptr: telemetry off, one branch per
  /// hook site.
  telemetry::Recorder* recorder = nullptr;
};

class FastFlexOrchestrator {
 public:
  FastFlexOrchestrator(sim::Network* net, OrchestratorConfig config);
  ~FastFlexOrchestrator();

  using RouteCustomizer = std::function<void(sim::Network&)>;

  /// Full deployment: routes (default TE over `stable_demands`), analysis,
  /// placement, pipelines.  `customize` runs after default route install so
  /// scenarios can override per-prefix routing before canonical paths are
  /// recorded.
  void Deploy(const std::vector<scheduler::Demand>& stable_demands,
              const RouteCustomizer& customize = nullptr);

  // ---- Per-switch module access (introspection / experiments) ----
  // Typed views over Pipeline::Find: nullptr when the module is absent —
  // booster not enabled, or its install was rejected for capacity.
  dataplane::Pipeline* pipeline(NodeId sw) const;
  runtime::ModeProtocolPpm* agent(NodeId sw) const;
  runtime::StateCollectorPpm* collector(NodeId sw) const;
  boosters::LfaDetectorPpm* lfa_detector(NodeId sw) const;
  boosters::CongestionReroutePpm* reroute(NodeId sw) const;
  boosters::PacketDropperPpm* dropper(NodeId sw) const;
  boosters::TopologyObfuscatorPpm* obfuscator(NodeId sw) const;
  boosters::HeavyHitterFilterPpm* hh_filter(NodeId sw) const;
  boosters::GlobalRateLimiterPpm* rate_limiter(NodeId sw) const;
  boosters::SynRateDetectorPpm* syn_rate_detector(NodeId sw) const;
  boosters::SynProxyPpm* syn_proxy(NodeId sw) const;
  boosters::SeqTranslatePpm* seq_translate(NodeId sw) const;
  dataplane::IntSourcePpm* int_source(NodeId sw) const;
  dataplane::IntTransitPpm* int_transit(NodeId sw) const;
  dataplane::IntSinkPpm* int_sink(NodeId sw) const;
  dataplane::FastFailoverPpm* fast_failover(NodeId sw) const;

  /// The booster names actually deployed (unknown names dropped), in
  /// registry install order.
  const std::vector<std::string>& deployed_boosters() const { return deployed_; }

  /// Crash-reboot recovery hook (wired to FaultInjector::set_reboot_handler
  /// by fault scenarios): models a switch coming back with programs intact
  /// but register state lost — resets every module and the mode word, then
  /// has the mode agent reconcile epochs and re-learn asserted modes from
  /// its neighbors via the one-hop sync exchange.
  void HandleSwitchReboot(NodeId sw);

  /// Fraction of switches (in region, 0 = all) with `bits` active.
  double FractionModeActive(std::uint32_t bits, std::uint32_t region = 0) const;

  // ---- Live booster elasticity (driven by control::ElasticOrchestrator) ----
  // Re-runs a registry install hook against the switch's deployment context
  // captured at Deploy(), so a later install is byte-for-byte the install
  // Deploy() would have done.  Atomic: when any exclusive module fails the
  // capacity fight, modules that did land are rolled back and the call
  // reports failure.  Returns true when the booster's modules are all
  // present afterwards (including when they already were).
  bool InstallBooster(NodeId sw, const std::string& booster);
  /// Removes the booster's exclusive modules (shared components stay, they
  /// are refcounted).  True if anything was actually removed.  The removed
  /// modules' counters are kept for CollectTelemetry.
  bool UninstallBooster(NodeId sw, const std::string& booster);
  /// True when every exclusive module of `booster` is present on `sw`.
  bool BoosterInstalled(NodeId sw, const std::string& booster) const;

  /// Snapshots every switch pipeline (module hit counts, occupancy vs
  /// budget, mode words) into `recorder` under "switch.<id>.pipeline", the
  /// counters of the SYN-defense modules and each mode agent's
  /// auth_rejects under "switch.<id>.<module>.<counter>" (whole-run totals,
  /// modules UninstallBooster removed included), and the agents' sums
  /// under "mode_protocol.*".
  void CollectTelemetry(telemetry::Recorder& recorder) const;

  // ---- Offline-analysis results ----
  const analyzer::MergedGraph& merged_graph() const { return merged_; }
  const analyzer::MergeSavings& savings() const { return savings_; }
  const scheduler::Placement& placement() const { return placement_; }
  const scheduler::TeSolution& te_solution() const { return te_; }

  runtime::ScalingManager& scaling() { return *scaling_; }

 private:
  void BuildPipeline(NodeId sw_id, const boosters::DeployEnv& env,
                     const std::vector<const boosters::BoosterDef*>& defs);
  dataplane::Ppm* FindModule(NodeId sw, const char* name) const;

  sim::Network* net_;
  OrchestratorConfig config_;

  std::shared_ptr<const std::unordered_map<Address, NodeId>> host_edge_;
  std::shared_ptr<const boosters::CanonicalPaths> canonical_;

  std::vector<std::string> deployed_;
  std::uint32_t alarm_extra_modes_ = 0;
  // Captured at Deploy() so InstallBooster can replay registry hooks later.
  // env_ points into config_ (both live as long as this object); each
  // SwitchCtx holds shared_ptrs to that switch's shared components plus the
  // alarm/epoch closures over its mode agent.
  boosters::DeployEnv env_;
  std::unordered_map<NodeId, boosters::SwitchCtx> switch_ctx_;
  std::unordered_map<NodeId, std::unique_ptr<dataplane::Pipeline>> pipelines_;
  std::unordered_map<NodeId, std::shared_ptr<runtime::ModeProtocolPpm>> agents_;
  std::unordered_map<NodeId, std::shared_ptr<runtime::StateCollectorPpm>> collectors_;
  // Counters of modules UninstallBooster removed, keyed like
  // CollectTelemetry's per-switch module counters.
  std::map<std::string, std::uint64_t> retired_counters_;

  analyzer::MergedGraph merged_;
  analyzer::MergeSavings savings_;
  scheduler::Placement placement_;
  scheduler::TeSolution te_;
  std::unique_ptr<runtime::ScalingManager> scaling_;
};

}  // namespace fastflex::control
