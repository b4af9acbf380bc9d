// ScenarioBuilder: one construction path for HotNets-topology experiments.
//
// RunFig3 and RunFaultyFig3 need the same scaffolding — topology, traffic,
// defense deployment, the Crossfire attacker, the mode-activation sampler —
// and differ only in what they add on top (a FaultPlan, different result
// post-processing).  The builder owns that shared path: fluent setters,
// then Build() returns a BuiltScenario that owns every live object with
// stable addresses, ready for `net->RunUntil(...)`.
//
// Determinism: Build() performs no RNG draws of its own; a BuiltScenario
// is a pure function of the builder's settings, so two Build()+RunUntil()
// runs with equal settings produce bit-identical artifacts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attacks/crossfire.h"
#include "attacks/syn_flood.h"
#include "control/orchestrator.h"
#include "control/sdn_controller.h"
#include "fault/fault.h"
#include "fault/injector.h"
#include "scenarios/fig3.h"
#include "scenarios/hotnets.h"
#include "sim/handshake.h"
#include "sim/network.h"

namespace fastflex::scenarios {

/// Shape of the SYN-flood experiment (scenarios::syn_flood_fig): the
/// Crossfire attacker is replaced by a spoofed SYN flood against the victim,
/// the victim gets a TcpListener, and legitimate load is handshake-initiated
/// download sessions (scheduled deterministically) instead of pre-established
/// flows — because connection setup is exactly what this attack targets.
struct SynFloodFigParams {
  double syn_rate_per_bot = 1000.0;  // 0 = control run: no flood at all
  std::size_t spoof_pool = 1024;
  std::uint16_t dst_port = 80;
  int sessions_per_client = 40;      // legit handshakes per client host
  SimTime first_session = 500 * kMillisecond;
  SimTime session_interval = 500 * kMillisecond;  // per client
  std::uint64_t download_bytes = 50'000;
  std::size_t backlog = 64;          // victim half-open capacity
  /// Per-switch SYN-rate alarm threshold (SynProxyConfig::syn_rate_alarm);
  /// tests lower it so modest floods trip the defense cheaply.
  double syn_rate_alarm = 2000.0;
};

/// Everything a running scenario keeps alive.  Movable; the owned objects
/// sit behind unique_ptrs so cross-references stay valid after a move.
struct BuiltScenario {
  HotnetsTopology h;
  std::unique_ptr<sim::Network> net;
  NormalTraffic normal;
  std::unique_ptr<control::FastFlexOrchestrator> orchestrator;  // kFastFlex only
  std::unique_ptr<control::SdnTeController> sdn;                // kBaselineSdn only
  std::unique_ptr<attacks::CrossfireAttacker> attacker;
  std::unique_ptr<attacks::SynFloodAttacker> syn_attacker;  // SynFlood() runs
  sim::TcpListener* listener = nullptr;  // victim's, owned by the victim Host
  std::vector<FlowId> sessions;          // legit handshake sessions (SynFlood())
  std::unique_ptr<fault::FaultInjector> injector;  // only when Faults() was set

  /// When >= 90% of switches first held the sampled mode bits active
  /// (50 ms sampling; 0 = never, or no orchestrator).
  SimTime modes_active_at() const { return *modes_active_at_; }

  // Shared so the sampler callback's target survives moves of this struct.
  std::shared_ptr<SimTime> modes_active_at_ = std::make_shared<SimTime>(0);
};

class ScenarioBuilder {
 public:
  ScenarioBuilder& Seed(std::uint64_t seed);
  ScenarioBuilder& Defense(DefenseKind defense);
  /// Booster name list for the orchestrator (registry names); unset keeps
  /// OrchestratorConfig's default set.
  ScenarioBuilder& Boosters(std::vector<std::string> names);
  ScenarioBuilder& EnableInt(bool on);
  ScenarioBuilder& Ablation(bool obfuscation, bool dropping);
  ScenarioBuilder& RerouteTuning(bool reroute_all, bool sticky);
  ScenarioBuilder& AttackAt(SimTime at);
  ScenarioBuilder& AttackFlows(int flows);
  ScenarioBuilder& SdnEpoch(SimTime epoch);
  /// Switches the attack vector from Crossfire to a spoofed SYN flood and
  /// reshapes legitimate load into handshake sessions (see SynFloodFigParams).
  /// Under kFastFlex this also appends "syn_defense" to the booster list and
  /// puts the victim on the protected-destination watch list.
  ScenarioBuilder& SynFlood(SynFloodFigParams params);
  /// Adaptive-adversary hardening toggle (default on, matching
  /// OrchestratorConfig's defaults).  Harden(false) builds the deliberately
  /// vulnerable deployment bench_adversarial measures as its regression arm:
  /// compiled-in hash seeds, unauthenticated mode floods, no per-source
  /// admission policing, single-window detector raises.
  ScenarioBuilder& Harden(bool on);
  /// Escape hatch applied to the orchestrator config last, after every other
  /// setter's effect (FastFlex only) — scenarios use it to add boosters or
  /// tune detector thresholds without the builder growing a setter per knob.
  ScenarioBuilder& TuneOrchestrator(std::function<void(control::OrchestratorConfig&)> fn);
  /// Arms this fault plan into the run; reboots route through
  /// FastFlexOrchestrator::HandleSwitchReboot when the defense is FastFlex.
  ScenarioBuilder& Faults(fault::FaultPlan plan);
  ScenarioBuilder& Record(telemetry::Recorder* recorder);
  /// Mode bits the activation sampler watches (default mode::kLfaReroute).
  ScenarioBuilder& SampleModes(std::uint32_t bits);

  BuiltScenario Build();

 private:
  std::uint64_t seed_ = 1;
  DefenseKind defense_ = DefenseKind::kFastFlex;
  std::vector<std::string> boosters_;
  bool boosters_set_ = false;
  bool enable_int_ = true;
  bool enable_obfuscation_ = true;
  bool enable_dropping_ = true;
  bool reroute_all_ = false;
  bool sticky_reroute_ = true;
  SimTime attack_at_ = 10 * kSecond;
  int attack_flows_ = 250;
  SimTime sdn_epoch_ = 30 * kSecond;
  SynFloodFigParams syn_params_;
  bool syn_set_ = false;
  bool harden_ = true;
  std::function<void(control::OrchestratorConfig&)> tune_;
  fault::FaultPlan faults_;
  bool faults_set_ = false;
  telemetry::Recorder* recorder_ = nullptr;
  std::uint32_t sample_bits_ = dataplane::mode::kLfaReroute;
};

}  // namespace fastflex::scenarios
