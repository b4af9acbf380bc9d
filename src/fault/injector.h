// FaultInjector: drives a FaultPlan off the simulator's event queue.
//
// Arm() schedules every planned fault at its time, plus the paired repair
// (link restored, switch rebooted, channel cleaned) when the event carries
// a duration.  Every transition lands in the recorder's trace as a `fault.*`
// event, the ground truth an experiment's failover/reconvergence
// measurements are checked against.
//
// Crash semantics split across two layers on reboot: the injector flips
// the switch back online (physics), then invokes the reboot handler —
// scenarios wire FastFlexOrchestrator::HandleSwitchReboot here, which
// resets the pipeline's register state and starts the mode-sync exchange
// (control).  The split keeps ff_fault free of control-plane dependencies.
//
// The injector must outlive the run it is armed into: scheduled callbacks
// point back at it.
#pragma once

#include <cstdint>
#include <functional>

#include "fault/fault.h"
#include "sim/network.h"
#include "telemetry/telemetry.h"

namespace fastflex::fault {

class FaultInjector {
 public:
  using RebootHandler = std::function<void(NodeId)>;

  FaultInjector(sim::Network* net, FaultPlan plan);

  /// Called after a crashed switch comes back online (see header comment).
  void set_reboot_handler(RebootHandler handler) { reboot_ = std::move(handler); }

  /// Fault and repair transitions are recorded into `recorder`'s trace.
  /// Nullptr: injection still happens, silently.
  void set_telemetry(telemetry::Recorder* recorder) { telem_ = recorder; }

  /// Schedules the whole plan onto the network's event queue.  Call once,
  /// before Run(); events whose time is already past fire immediately on
  /// the next queue drain.
  void Arm();

  std::uint64_t injected() const { return injected_; }
  std::uint64_t repaired() const { return repaired_; }

 private:
  void Inject(const FaultEvent& e);
  void Repair(const FaultEvent& e);
  /// Records one transition as a `fault.*` trace event.
  void Record(std::string event, telemetry::Tracer::Fields fields);
  /// Applies `fn(link)` to the event's link, and its reverse when duplex.
  void ForEachDirection(const FaultEvent& e, const std::function<void(LinkId)>& fn);

  sim::Network* net_;
  FaultPlan plan_;
  RebootHandler reboot_;
  telemetry::Recorder* telem_ = nullptr;
  bool armed_ = false;

  std::uint64_t injected_ = 0;
  std::uint64_t repaired_ = 0;
};

}  // namespace fastflex::fault
