// Fast-failover PPM — data-plane recovery from dead egress links.
//
// InstallDstRoutes provisions every switch with primary-plus-backup next
// hops per destination; SwitchNode's default lookup walks that list only to
// skip *avoided* neighbors (reconfiguration notices), never dead links — a
// silently failed link blackholes traffic until something notices.  This
// module is that something, at the layer the paper argues for: per packet,
// it checks the liveness of the chosen egress (with a loss-of-light
// detection delay) and steers onto the first live backup candidate,
// entirely in the data plane.
//
// Detoured packets carry a kFailoverDetour tag naming the switch that
// detoured them.  A downstream switch whose own primary would bounce the
// packet straight back to that switch treats the route as unusable and
// picks its next candidate instead — the "shortcutting" refinement that
// keeps one-failure detours loop-free even though only the failure-adjacent
// switch knows the link is dead.
#pragma once

#include <unordered_set>

#include "dataplane/ppm.h"
#include "sim/network.h"
#include "sim/switch_node.h"

namespace fastflex::dataplane {

struct FailoverConfig {
  /// Loss-of-light detection latency: a dead egress keeps swallowing
  /// packets for this long before the port status register flips and the
  /// failover match-action stage starts detouring.
  SimTime port_down_detect = 1 * kMillisecond;
};

class FastFailoverPpm : public Ppm {
 public:
  FastFailoverPpm(sim::Network* net, sim::SwitchNode* sw, FailoverConfig config = {});

  void Process(sim::PacketContext& ctx) override;

  /// Register state (the per-port failed-over flags) is lost on reboot.
  void Reset() override { failed_over_.clear(); }

  /// First failover / failback per dead-link episode lands in the
  /// recorder's trace as a fault.failover / fault.failback event.  One
  /// branch per event when detached.
  void SetTelemetry(telemetry::Recorder* recorder) { telem_ = recorder; }

  std::uint64_t failovers() const { return failovers_; }
  std::uint64_t no_backup() const { return no_backup_; }

 private:
  /// Whether an egress link is usable (up, or down for less than the
  /// detection delay); kInvalidLink (no adjacency) is not.
  bool EgressAlive(LinkId link, SimTime now) const;

  sim::Network* net_;
  sim::SwitchNode* sw_;
  FailoverConfig config_;

  // Links this switch is currently detouring around (episode state for
  // first-failover / failback telemetry; one entry per dead egress).
  std::unordered_set<LinkId> failed_over_;

  std::uint64_t failovers_ = 0;  // packets steered onto a backup
  std::uint64_t no_backup_ = 0;  // dead egress with no live candidate
  telemetry::Recorder* telem_ = nullptr;
};

}  // namespace fastflex::dataplane
