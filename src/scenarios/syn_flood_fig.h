// The SYN-flood experiment (scenarios::syn_flood_fig): legitimate
// handshake-initiated download sessions against the victim while a spoofed
// SYN flood tries to exhaust its accept backlog, comparing
//   - no defense (the backlog fills; sessions arriving under flood give up),
//   - FastFlex with the split-proxy booster (cookies absorb the flood at the
//     edge; validated clients ride the cuckoo filter to the victim),
// on the Figure 2 topology.  The headline is session goodput under flood
// relative to a control run with the flood disabled — the `BENCH_syn.json`
// gate holds the defended ratio at >= 0.9 under a 10x flood.
#pragma once

#include <cstdint>

#include "scenarios/builder.h"
#include "telemetry/telemetry.h"

namespace fastflex::scenarios {

struct SynFloodFigOptions {
  DefenseKind defense = DefenseKind::kFastFlex;
  std::uint64_t seed = 1;
  SimTime duration = 60 * kSecond;
  SimTime attack_at = 10 * kSecond;
  SynFloodFigParams flood;  // rate 0 = control run
  /// Deploy the INT trio alongside the defense (FastFlex only).
  bool enable_int = false;
  /// When set, the run is fully instrumented; the recorder then carries the
  /// "syn" telemetry section plus "synfig.*" result gauges, all a pure
  /// function of (options, seed).
  telemetry::Recorder* recorder = nullptr;
};

struct SynFloodFigResult {
  int sessions = 0;     // legit sessions scheduled
  int established = 0;  // completed the 3-way handshake
  int gave_up = 0;      // exhausted SYN retries
  int completed = 0;    // full download delivered and FINed
  std::uint64_t delivered_bytes = 0;  // across all legit sessions

  std::uint64_t flood_syns = 0;       // spoofed SYNs the bots emitted
  std::uint64_t victim_syns_seen = 0;
  std::uint64_t victim_syns_refused = 0;  // backlog full (the attack working)
  /// The SYN-cache listener's pressure signal: a flooded backlog evicts its
  /// oldest half-open entry per arriving SYN instead of refusing, so under
  /// attack this counter races while syns_refused stays zero.
  std::uint64_t victim_half_open_evictions = 0;
  std::uint64_t victim_accepted = 0;

  // Split-proxy totals across all switches (zero when undefended).
  std::uint64_t cookies_sent = 0;
  std::uint64_t handshakes_validated = 0;
  std::uint64_t invalid_cookies = 0;
  std::uint64_t filter_inserts = 0;
  std::uint64_t filter_insert_failures = 0;
  std::uint64_t policed_drops = 0;
  std::uint64_t seq_translated = 0;

  SimTime modes_active_at = 0;  // >= 90% of switches in kSynDefense (0: never)
  std::uint64_t events_processed = 0;
};

SynFloodFigResult RunSynFloodFig(const SynFloodFigOptions& options);

}  // namespace fastflex::scenarios
