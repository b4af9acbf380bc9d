#include "fault/injector.h"

#include <cmath>

#include "sim/switch_node.h"
#include "util/logging.h"

namespace fastflex::fault {

namespace {
std::int64_t PerMille(double p) { return std::llround(p * 1000.0); }
std::int64_t Ms(SimTime t) { return t / kMillisecond; }
}  // namespace

FaultInjector::FaultInjector(sim::Network* net, FaultPlan plan)
    : net_(net), plan_(std::move(plan)) {}

void FaultInjector::Record(std::string event, telemetry::Tracer::Fields fields) {
  if (telem_ != nullptr) telem_->trace().Event(net_->Now(), std::move(event), fields);
}

void FaultInjector::ForEachDirection(const FaultEvent& e,
                                     const std::function<void(LinkId)>& fn) {
  fn(e.link);
  if (e.duplex) {
    const LinkId rev = net_->topology().link(e.link).reverse;
    if (rev != kInvalidLink) fn(rev);
  }
}

void FaultInjector::Inject(const FaultEvent& e) {
  telemetry::ProfScope prof_scope(net_->profiler(), telemetry::ProfSite::kFaultInject);
  ++injected_;
  switch (e.kind) {
    case FaultKind::kLinkDown:
      ForEachDirection(e, [this](LinkId l) { net_->SetLinkUp(l, false); });
      Record("fault.link_down", {{"link", e.link}, {"aux", Ms(e.duration)}});
      break;
    case FaultKind::kSwitchCrash:
      if (sim::SwitchNode* sw = net_->switch_at(e.node)) sw->SetOffline(true);
      Record("fault.switch_crash", {{"node", e.node}, {"aux", Ms(e.duration)}});
      break;
    case FaultKind::kControlLoss:
      ForEachDirection(e, [this, &e](LinkId l) { net_->SetProbeLoss(l, e.probability); });
      Record("fault.control_loss", {{"link", e.link}, {"aux", PerMille(e.probability)}});
      break;
    case FaultKind::kCorruption:
      ForEachDirection(e, [this, &e](LinkId l) { net_->SetCorruption(l, e.probability); });
      Record("fault.corruption", {{"link", e.link}, {"aux", PerMille(e.probability)}});
      break;
  }
}

void FaultInjector::Repair(const FaultEvent& e) {
  telemetry::ProfScope prof_scope(net_->profiler(), telemetry::ProfSite::kFaultInject);
  ++repaired_;
  switch (e.kind) {
    case FaultKind::kLinkDown:
      ForEachDirection(e, [this](LinkId l) { net_->SetLinkUp(l, true); });
      Record("fault.link_up", {{"link", e.link}});
      break;
    case FaultKind::kSwitchCrash:
      if (sim::SwitchNode* sw = net_->switch_at(e.node)) sw->SetOffline(false);
      Record("fault.switch_reboot", {{"node", e.node}});
      if (reboot_) reboot_(e.node);
      break;
    case FaultKind::kControlLoss:
      ForEachDirection(e, [this](LinkId l) { net_->SetProbeLoss(l, 0.0); });
      Record("fault.fault_cleared", {{"link", e.link}});
      break;
    case FaultKind::kCorruption:
      ForEachDirection(e, [this](LinkId l) { net_->SetCorruption(l, 0.0); });
      Record("fault.fault_cleared", {{"link", e.link}});
      break;
  }
}

void FaultInjector::Arm() {
  if (armed_) {
    FF_LOG(kError) << "FaultInjector::Arm called twice; ignoring";
    return;
  }
  armed_ = true;
  for (const FaultEvent& e : plan_.events()) {
    net_->events().ScheduleAt(e.at, [this, e] { Inject(e); });
    if (e.duration > 0) {
      net_->events().ScheduleAt(e.at + e.duration, [this, e] { Repair(e); });
    }
  }
}

}  // namespace fastflex::fault
