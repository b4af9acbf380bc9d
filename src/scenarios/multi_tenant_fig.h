// The multi-tenant elasticity experiment (scenarios::multi_tenant_fig): two
// concurrent attacks on different regions of the scale_fig3-style ring
// fabric, defended by the base booster set plus control::ElasticOrchestrator.
//
//   - Region 1: a rolling Crossfire LFA — bots flood decoy servers behind a
//     narrow access link; the resident lfa_detection booster raises the LFA
//     modes region-wide, and the elastic loop scales the illusion pair
//     (topology_obfuscation + packet_dropping) up onto region-1 switches.
//   - Region 3: a spoofed SYN flood from compromised local clients against
//     a TcpListener server while remote clients run handshake-initiated
//     downloads; the resident syn_detection booster raises kSynDefense, and
//     the loop scales syn_mitigation (proxy + translator) up — which does
//     NOT fit the deliberately tightened stage budget until the loop sheds
//     the lowest-value resident booster (hop_count_filter, value 25).
//
// Both attacks end mid-run; after the quiet-epoch window every scaled-up
// booster is torn down and the fabric returns to the default program.  The
// paper sketches exactly this co-existence story ("mixed-vector attacks
// would trigger co-existing modes at different regions"); this scenario
// measures it with capacity actually contested.
#pragma once

#include <cstdint>

#include "control/elastic.h"
#include "telemetry/telemetry.h"
#include "util/types.h"

namespace fastflex::scenarios {

struct MultiTenantOptions {
  std::uint64_t seed = 1;
  SimTime duration = 50 * kSecond;
  /// Both attacks start here and stop at `attack_stop` (teardown needs the
  /// tail: detector clears + quiet epochs + the teardown repurposings).
  SimTime attack_at = 8 * kSecond;
  SimTime attack_stop = 30 * kSecond;

  int regions = 4;             // ring size; LFA hits region 1, SYN region 3
  int clients_per_region = 3;  // background/download clients per region

  /// false = static arm: identical deployment, no elastic loop — the
  /// regression baseline bench_elastic compares defended goodput against.
  bool elastic = true;
  /// false = quiet arm: no attacks at all (goodput reference).
  bool attacks = true;

  /// Elastic control-loop policy (rules default to the LFA/SYN pairs).
  control::ElasticPolicy policy;

  /// When set, the run is fully instrumented and carries the "elastic.*"
  /// counters and decision events — a pure function of (options, seed).
  telemetry::Recorder* recorder = nullptr;
};

struct MultiTenantResult {
  // ---- LFA tenant (region 1) ----
  SimTime lfa_alarm_at = 0;          // earliest detector raise (0 = never)
  int attacker_rolls = 0;            // rolls the blinded attacker managed
  std::uint64_t illusion_drops = 0;  // packet_dropping drops (elastic only)
  double lfa_mode_frac_peak = 0.0;   // region-1 kLfaReroute peak fraction

  // ---- SYN tenant (region 3) ----
  int sessions = 0;
  int established = 0;
  int gave_up = 0;
  int completed = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t flood_syns = 0;
  std::uint64_t victim_half_open_evictions = 0;
  std::uint64_t victim_accepted = 0;
  std::uint64_t cookies_sent = 0;
  std::uint64_t handshakes_validated = 0;
  double syn_mode_frac_peak = 0.0;  // region-3 kSynDefense peak fraction

  // ---- Elastic control loop (zeros in the static arm) ----
  std::uint64_t epochs = 0;
  std::uint64_t replans = 0;
  std::uint64_t scale_ups = 0;
  std::uint64_t sheds = 0;
  std::uint64_t teardowns = 0;
  std::uint64_t install_rejects = 0;
  std::uint64_t over_budget = 0;      // switch-epochs over capacity (gate: 0)
  SimTime first_scale_up_at = 0;      // 0 = never
  SimTime last_teardown_at = 0;       // 0 = never
  bool retired = true;                // loop-installed set empty at run end

  std::uint64_t events_processed = 0;
};

MultiTenantResult RunMultiTenantFig(const MultiTenantOptions& options);

}  // namespace fastflex::scenarios
