// ElasticOrchestrator: capacity-aware elastic defense scaling (the runtime
// half of Section 3.4 the static deployment leaves on the table).
//
// The FastFlexOrchestrator deploys a default booster set and gets out of
// the way; mode floods then activate mitigations that are already
// installed.  This loop closes the remaining gap: mitigations that are NOT
// part of the default program.  On a fixed re-plan epoch it reads the
// telemetry pressure signals (per-region mode-active fractions — the
// data-plane alarms made visible through FractionModeActive — plus each
// pipeline's resource headroom), and
//
//   - scales a rule's booster family UP onto every switch of a pressured
//     region, executing each reprogram through ScalingManager::Repurpose so
//     the install pays the announced grace + blackout the paper's
//     repurposing sequence models;
//   - sheds the lowest-value installed boosters (BoosterDef::value,
//     ascending; never at or above the policy floor) when a switch's
//     resource vector cannot fit the newcomer, retrying until it fits or
//     no shed candidate remains;
//   - tears the scaled-up family back DOWN after a region stays quiet for
//     `quiet_epochs` consecutive epochs, returning the fabric to the
//     default program;
//   - re-runs the offline placement pipeline (Merge → ClusterGraph →
//     PlaceClusters) whenever the active mix changes, as feasibility
//     evidence for the new program.
//
// Determinism: the tick runs in the event loop, switches and regions are
// visited in sorted order, and every decision reads only sim-state —
// reruns are byte-identical.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "control/orchestrator.h"
#include "runtime/scaling.h"
#include "scheduler/placement.h"
#include "sim/network.h"
#include "telemetry/telemetry.h"

namespace fastflex::control {

/// One elasticity rule: when `mode_bits` is active on at least
/// `ElasticPolicy::pressure_frac` of a region's switches, the region is
/// "pressured" and `boosters` (registry names) are scaled up onto every
/// switch in it.
struct ElasticRule {
  std::uint32_t mode_bits = 0;
  std::vector<std::string> boosters;
};

struct ElasticPolicy {
  /// Re-plan epoch: how often pressure is re-read and the plan re-executed.
  SimTime epoch = 500 * kMillisecond;
  /// Consecutive pressure-free epochs before a region's scale-ups retire.
  int quiet_epochs = 4;
  /// Fraction of a region's switches that must have the rule's modes active.
  double pressure_frac = 0.5;
  /// Boosters valued at or above this are never shed (detection and base
  /// connectivity must survive any capacity fight).
  int never_shed_value = 60;
  /// Repurposing timing for elastic installs/teardowns.  Defaults model a
  /// runtime-reconfigurable ASIC (short blackout) rather than full Tofino
  /// reprogramming — elastic scaling is exactly the workload such ASICs
  /// exist for; pass ScalingOptions{} for the pessimistic model.
  runtime::ScalingOptions scaling{.grace = 20 * kMillisecond,
                                  .downtime = 100 * kMillisecond};
  /// Placement options for the re-plan solve (capacity must match the
  /// deployment's).
  scheduler::PlacementOptions placement;
  /// The rule table.  Default: LFA pressure pulls in the illusion pair
  /// (obfuscation + dropping), SYN pressure pulls in the mitigation half of
  /// the split proxy.
  std::vector<ElasticRule> rules = DefaultRules();

  static std::vector<ElasticRule> DefaultRules();
};

class ElasticOrchestrator {
 public:
  /// `orch` must be Deploy()ed already and outlive this object; `recorder`
  /// (nullable) receives the decision log as elastic.<action>.<booster>
  /// trace events (action: scale_up, shed, teardown, reject; field sw).
  ElasticOrchestrator(sim::Network* net, FastFlexOrchestrator* orch,
                      ElasticPolicy policy, telemetry::Recorder* recorder = nullptr);

  /// Begins the epoch loop (first tick after one epoch).
  void Start();
  void Stop() { running_ = false; }

  struct Totals {
    std::uint64_t epochs = 0;           // control-loop ticks executed
    std::uint64_t replans = 0;          // placement re-solves (mix changed)
    std::uint64_t scale_ups = 0;        // booster installs committed
    std::uint64_t sheds = 0;            // boosters evicted for capacity
    std::uint64_t teardowns = 0;        // boosters retired after quiet epochs
    std::uint64_t repurposes = 0;       // ScalingManager sequences completed
    std::uint64_t install_rejects = 0;  // installs refused even after shedding
    std::uint64_t over_budget = 0;      // switch-epochs observed over capacity
  };

  /// Writes totals() into `recorder` as the "elastic.*" counters.
  void CollectTelemetry(telemetry::Recorder& recorder) const;

  // ---- Introspection (tests / benches) ----
  const Totals& totals() const { return totals_; }
  /// Boosters this loop installed and has not yet torn down, per switch.
  const std::map<NodeId, std::set<std::string>>& loop_installed() const {
    return loop_installed_;
  }
  /// Result of the most recent mix-change re-plan (empty before the first).
  const scheduler::Placement& last_replan() const { return replan_; }
  /// True while `region` is scaled up under rule `rule_idx`.
  bool RegionScaledUp(std::size_t rule_idx, std::uint32_t region) const;

 private:
  struct RegionState {
    bool active = false;  // scale-ups outstanding in this region
    int quiet = 0;        // consecutive pressure-free epochs while active
  };

  void Tick();
  void AuditBudgets();
  void ScaleUp(const ElasticRule& rule, std::uint32_t region);
  /// True when nothing of `rule` remains scaled up in `region` (teardown is
  /// asynchronous — the caller keeps the region active until this holds).
  bool TearDown(const ElasticRule& rule, std::uint32_t region);
  bool InstallWithShedding(NodeId sw, const std::string& booster,
                           const ElasticRule& rule);
  void Replan();
  /// Logs one decision as an elastic.<action>.<booster> trace event.
  void Record(const char* action, NodeId sw, const std::string& booster);

  sim::Network* net_;
  FastFlexOrchestrator* orch_;
  ElasticPolicy policy_;
  telemetry::Recorder* recorder_;

  bool running_ = false;
  Totals totals_;
  std::vector<NodeId> switches_;        // topology order (== sorted)
  std::vector<std::uint32_t> regions_;  // sorted distinct switch regions
  // rule index → region → state; std::map for deterministic iteration.
  std::map<std::size_t, std::map<std::uint32_t, RegionState>> state_;
  std::set<NodeId> inflight_;  // switches with a repurposing sequence open
  std::map<NodeId, std::set<std::string>> loop_installed_;
  // Install attempts that failed even after shedding: not retried until the
  // region deactivates, so a hopeless booster does not blackout the switch
  // every epoch.
  std::map<NodeId, std::set<std::string>> rejected_;
  scheduler::Placement replan_;
};

}  // namespace fastflex::control
