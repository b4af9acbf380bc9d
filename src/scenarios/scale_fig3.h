// A scaled-up multi-region fabric: R regions on a ring, each with an
// aggregation switch, an edge switch, a server, and a block of clients.
// Clients open TCP downloads to the server half-way around the ring (every
// flow crosses several region boundaries) plus a low-rate UDP background
// stream to the neighboring region, so the event population is dominated
// by queueing and TCP dynamics.
//
// No defense is deployed: this is the no-defense control workload for the
// simulator core (event queue, link queues, packet pool, TCP) — the
// benchmark's ring_tcp runs it, so a data-plane change must leave it flat.
// Profiler region labels are the ring index.
#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/telemetry.h"
#include "util/types.h"

namespace fastflex::scenarios {

struct ScaleFig3Options {
  std::uint64_t seed = 1;
  SimTime duration = 5 * kSecond;
  int regions = 8;             // ring size
  int clients_per_region = 4;
  double demand_bps = 4e6;     // per TCP flow (application-bounded)
  double udp_bps = 500e3;      // per background UDP stream
  /// Propagation delay of the ring links between regions.
  SimTime region_delay = 1 * kMillisecond;

  telemetry::Recorder* recorder = nullptr;
};

struct ScaleFig3Result {
  std::uint64_t events_processed = 0;  // TotalEventsProcessed fingerprint
  std::uint64_t delivered_bytes = 0;   // across all TCP flows
  int flows = 0;
};

ScaleFig3Result RunScaleFig3(const ScaleFig3Options& options);

}  // namespace fastflex::scenarios
