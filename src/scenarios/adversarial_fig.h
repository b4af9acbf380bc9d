// The adaptive-adversary experiment (scenarios::adversarial_fig): each run
// pits one attacks::adaptive strategy against the deployed defense stack on
// the HotNets topology, with the orchestrator's adversary hardening either
// on (the default deployment) or off (the pre-hardening regression arm),
// and measures detection quality under that pressure:
//
//   strategy          unhardened outcome              hardened outcome
//   ----------------  ------------------------------  ------------------------
//   kCollisionFlood   volumetric false alarm from     plan misses the salted
//                     pre-computed sketch collisions  sketch; no false alarm
//   kModeForge        forged probes flip modes        probes fail the MAC and
//                     fabric-wide AND poison epoch    are consumed; the real
//                     dedup, so a later real flood's  flood's detection
//                     detection never propagates      propagates normally
//   kCookieMint       self-minted cookies fill the    per-source policing caps
//                     cuckoo filter; legit clients    the mint rate; goodput
//                     lose tracking and goodput       unaffected
//   kPulse            threshold-straddling pulses     raise persistence rejects
//                     flap the mode fabric every      single-window spikes; no
//                     duty cycle                      flaps, suppressions count
//
// bench_adversarial runs all eight (strategy x hardened) cells and gates the
// hardened column in CI; BENCH_adv.json records both columns so the
// unhardened numbers stay as regression evidence.
#pragma once

#include <cstdint>

#include "scenarios/builder.h"
#include "telemetry/telemetry.h"

namespace fastflex::scenarios {

enum class AdvStrategy {
  kCollisionFlood = 0,
  kModeForge = 1,
  kCookieMint = 2,
  kPulse = 3,
};

/// Stable short name for JSON keys / labels ("collision", "forge", "mint",
/// "pulse").
const char* AdvStrategyName(AdvStrategy s);

struct AdversarialFigOptions {
  AdvStrategy strategy = AdvStrategy::kCollisionFlood;
  /// false = the pre-hardening deployment (ScenarioBuilder::Harden(false)).
  bool hardened = true;
  std::uint64_t seed = 1;
  SimTime duration = 30 * kSecond;
  /// When the adaptive attacker starts.  Kept a multiple of the detector
  /// check period so the pulse strategy's bursts align with check windows.
  SimTime attack_at = 5 * kSecond;
  /// When set: full instrumentation plus "advfig.*" result gauges, all a
  /// pure function of (options, seed) — reruns are byte-identical.
  telemetry::Recorder* recorder = nullptr;
};

struct AdversarialFigResult {
  // ---- Detection quality ----
  /// Fraction of 100 ms samples (attack onset -> end) during which the
  /// strategy's target mode was active on >= 50% of switches without a real
  /// sustained attack justifying it.  The false-positive rate of the run.
  double fp_frac = 0.0;
  /// kModeForge / kCookieMint embed a REAL spoofed SYN flood; this is when
  /// its detection went broadly active (>= 90% switches, 0 = never).  A
  /// poisoned fabric never gets there: the false-negative signal.
  SimTime detect_at = 0;
  bool real_attack_detected = false;
  std::uint64_t mode_flips = 0;  // sum of mode applications across switches

  // ---- Hardening evidence ----
  std::uint64_t auth_rejects = 0;        // forged probes consumed by the MAC
  std::uint64_t raises_suppressed = 0;   // single-window spikes absorbed
  std::uint64_t admissions_policed = 0;  // minted cookies refused

  // ---- Attacker effort / effect ----
  std::uint64_t attack_packets = 0;
  std::uint64_t pulses_fired = 0;
  std::uint64_t flood_syns = 0;  // the embedded real flood (forge/mint)
  std::uint64_t filter_inserts = 0;
  std::uint64_t filter_insert_failures = 0;
  double filter_load_max = 0.0;

  // ---- Legitimate goodput ----
  int sessions = 0;
  int established = 0;
  int completed = 0;
  std::uint64_t delivered_bytes = 0;

  std::uint64_t events_processed = 0;
};

AdversarialFigResult RunAdversarialFig(const AdversarialFigOptions& options);

}  // namespace fastflex::scenarios
