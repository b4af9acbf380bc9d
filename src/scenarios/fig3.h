// The Figure 3 experiment: normalized throughput of normal user flows under
// a rolling link-flooding attack, comparing
//   - no defense,
//   - the baseline (SDN controller, centralized TE every 30 s), and
//   - FastFlex (data-plane mode changes at RTT timescale),
// on the Figure 2 topology.  Ablation switches expose steps 3-5 of the
// FastFlex defense individually.
#pragma once

#include <cstdint>
#include <vector>

#include "attacks/crossfire.h"
#include "telemetry/telemetry.h"
#include "util/types.h"

namespace fastflex::scenarios {

enum class DefenseKind { kNone, kBaselineSdn, kFastFlex };

struct Fig3Options {
  DefenseKind defense = DefenseKind::kFastFlex;
  std::uint64_t seed = 1;
  SimTime duration = 120 * kSecond;
  SimTime attack_at = 10 * kSecond;
  SimTime sdn_epoch = 30 * kSecond;

  int attack_flows = 250;

  // Ablations (FastFlex only).
  bool enable_obfuscation = true;  // step 4: hide rerouting from traceroute
  bool enable_dropping = true;     // step 5: illusion of success
  bool reroute_all = false;        // A1: reroute everything vs suspects only
  bool sticky_reroute = true;      // A1b: flowlet-sticky vs herding reroute

  /// FastFlex only: deploy the INT source/transit/sink trio.  Stamping is
  /// mode-gated, so packets carry hop records exactly while detector alarms
  /// hold the defense up — the hop-level diagnosis of the rolling attack.
  bool enable_int = true;

  /// When set, the run is fully instrumented: network + pipeline hot-path
  /// hooks during the run, then a harvest pass (per-link/per-switch
  /// counters, pipeline occupancy) plus the result series under "fig3.*".
  /// The recorder contents are a pure function of (options, seed).
  telemetry::Recorder* recorder = nullptr;
};

struct Fig3Result {
  /// Aggregate goodput of the normal flows per 1-second bin, normalized by
  /// the measured pre-attack stable goodput — the paper's y-axis.
  std::vector<double> normalized;
  double stable_goodput_bps = 0.0;

  std::vector<attacks::RollEvent> rolls;
  SimTime first_alarm = 0;       // first detector alarm (0 = never)
  SimTime modes_active_at = 0;   // >= 90% of switches in defense mode
  int sdn_reconfigurations = 0;
  std::uint64_t policy_drops = 0;
  /// Total discrete events the run processed — an integer fingerprint of
  /// the whole simulation that sweep artifacts embed per cell.
  std::uint64_t events_processed = 0;

  /// In-band telemetry (instrumented FastFlex runs only): journeys the
  /// sinks reconstructed, and the first time any packet carried the reroute
  /// mode bit — i.e. when the mode flip became visible from inside the
  /// data plane (alarm-to-flip latency = int_reroute_seen_at - first_alarm).
  std::uint64_t int_journeys = 0;
  SimTime int_reroute_seen_at = 0;

  /// Mean of `normalized` over the attack period (the headline number).
  double mean_during_attack = 0.0;
  /// Mean latency of normal flows' delivered traffic is not tracked here;
  /// ablation A1 uses per-flow goodput disturbance instead.
  double min_during_attack = 1.0;
};

Fig3Result RunFig3(const Fig3Options& options);

struct BuiltScenario;

/// Shared post-processing over a finished run (net->RunUntil already done):
/// the per-second normalized goodput series, attack-period summary, alarm /
/// mode timings, and — when `recorder` is set — the full "fig3.*" metric
/// harvest.  RunFig3 and RunFaultyFig3 both report through this, so their
/// artifacts share one schema.
Fig3Result SummarizeFig3Run(BuiltScenario& s, SimTime duration, SimTime attack_at,
                            telemetry::Recorder* recorder);

}  // namespace fastflex::scenarios
