// The fault-injected Figure 3 experiment: the rolling-LFA run of fig3.h
// with infrastructure faults layered on top, measuring how the data-plane
// defense stack survives them.
//
// Timeline (defaults): normal traffic from 0.5 s, rolling Crossfire attack
// from `attack_at`; at `link_fault_at` the first critical core link
// (M1 <-> R) is cut both ways and repaired `link_repair_after` later; at
// `crash_at` middle switch M2 crashes — full register-state loss — and
// reboots `reboot_after` later, rejoining via the mode-sync exchange.
//
// Measured: failover latency (link cut -> first packet steered onto a
// backup next hop, entirely in the data plane) and mode-reconvergence
// latency (reboot -> the rebooted switch holds the LFA-reroute mode bit
// again, re-learned from its neighbors).  Both are sim-time quantities,
// bit-identical across reruns at the same seed.
#pragma once

#include <cstdint>

#include "scenarios/fig3.h"
#include "telemetry/telemetry.h"
#include "util/types.h"

namespace fastflex::scenarios {

struct FaultyFig3Options {
  std::uint64_t seed = 1;
  SimTime duration = 40 * kSecond;
  SimTime attack_at = 8 * kSecond;
  int attack_flows = 250;

  SimTime link_fault_at = 16 * kSecond;       // critical1 (M1 <-> R) cut
  SimTime link_repair_after = 10 * kSecond;
  SimTime crash_at = 20 * kSecond;            // M2 crash + register loss
  SimTime reboot_after = 2 * kSecond;

  /// When set, the run is fully instrumented; the artifact additionally
  /// carries the "fault.*" trace events and "faulty_fig3.*" gauges.  When
  /// null, an internal recorder still takes the fault events (the latency
  /// results below are computed from them) but nothing is exported.
  telemetry::Recorder* recorder = nullptr;
};

struct FaultyFig3Result {
  Fig3Result fig3;  // the shared goodput/alarm summary (SummarizeFig3Run)

  SimTime link_down_at = 0;
  SimTime first_failover_at = 0;   // first fault.failover event (0 = never)
  SimTime failover_latency = 0;    // first_failover_at - link_down_at
  SimTime reboot_at = 0;
  SimTime reconverged_at = 0;      // rebooted switch holds kLfaReroute again
  SimTime reconverge_latency = 0;  // reconverged_at - reboot_at

  std::uint64_t failovers = 0;      // packets steered onto backups (all switches)
  std::uint64_t no_backup = 0;      // dead egress without a live candidate
  std::uint64_t flood_retries = 0;  // mode-flood hardening re-sends
  std::uint64_t resyncs = 0;        // sync requests (1 per reboot here)
  std::uint64_t fault_records = 0;  // total fault.* trace events
};

FaultyFig3Result RunFaultyFig3(const FaultyFig3Options& options);

}  // namespace fastflex::scenarios
