#include "scenarios/faulty_fig3.h"

#include <functional>
#include <memory>
#include <string_view>

#include "scenarios/builder.h"

namespace fastflex::scenarios {

namespace {

// Time of the first `name` event (at `node` when given), or 0 when none.
SimTime FirstAt(const telemetry::Tracer& trace, std::string_view name,
                std::int64_t node = -1) {
  for (const telemetry::TraceEvent* e : trace.EventsNamed(name)) {
    if (node < 0 || e->Field("node") == node) return e->t;
  }
  return 0;
}

}  // namespace

FaultyFig3Result RunFaultyFig3(const FaultyFig3Options& options) {
  // The fault records are the measurement instrument here, so a run without
  // a caller-provided recorder still records into a local one.  Attaching a
  // recorder never changes simulation physics, only what gets written down.
  telemetry::Recorder local;
  telemetry::Recorder* rec = options.recorder != nullptr ? options.recorder : &local;

  // The fault plan needs topology ids; build a throwaway copy for them (the
  // builder constructs its own identical instance from the same params).
  const HotnetsTopology ids = BuildHotnetsTopology();

  fault::FaultPlan plan;
  plan.LinkDown(options.link_fault_at, ids.critical1, options.link_repair_after);
  plan.SwitchCrash(options.crash_at, ids.m2, options.reboot_after);

  auto boosters = boosters::DefaultBoosterSet();
  boosters.push_back("fast_failover");

  BuiltScenario s = ScenarioBuilder()
                        .Seed(options.seed)
                        .Defense(DefenseKind::kFastFlex)
                        .Boosters(boosters)
                        .EnableInt(false)
                        .AttackAt(options.attack_at)
                        .AttackFlows(options.attack_flows)
                        .Faults(std::move(plan))
                        .Record(rec)
                        .Build();

  // Reconvergence probe: from the moment M2 is back online, poll its
  // pipeline every millisecond until the LFA-reroute mode bit is active
  // again (re-learned from neighbors via the sync exchange), then stamp a
  // fault.reconverged record.  Polling grain = measurement resolution (1 ms).
  const SimTime reboot_at = options.crash_at + options.reboot_after;
  const NodeId m2 = s.h.m2;
  {
    auto poll = std::make_shared<std::function<void()>>();
    std::weak_ptr<std::function<void()>> weak = poll;
    sim::Network* net = s.net.get();
    control::FastFlexOrchestrator* orch = s.orchestrator.get();
    *poll = [net, orch, m2, reboot_at, rec, weak] {
      dataplane::Pipeline* pipe = orch->pipeline(m2);
      if (pipe != nullptr && pipe->ModeActive(dataplane::mode::kLfaReroute)) {
        rec->trace().Event(net->Now(), "fault.reconverged",
                           {{"node", m2}, {"aux", (net->Now() - reboot_at) / kMillisecond}});
        return;
      }
      if (auto self = weak.lock()) {
        net->events().ScheduleAfter(kMillisecond, [self] { (*self)(); });
      }
    };
    net->events().ScheduleAt(reboot_at + kMillisecond, [poll] { (*poll)(); });
  }

  s.net->RunUntil(options.duration);

  FaultyFig3Result result;
  result.fig3 = SummarizeFig3Run(s, options.duration, options.attack_at, options.recorder);

  const telemetry::Tracer& trace = rec->trace();
  result.fault_records = trace.EventsWithPrefix("fault.").size();
  result.link_down_at = FirstAt(trace, "fault.link_down");
  result.first_failover_at = FirstAt(trace, "fault.failover");
  if (result.first_failover_at > 0 && result.link_down_at > 0) {
    result.failover_latency = result.first_failover_at - result.link_down_at;
  }
  result.reboot_at = FirstAt(trace, "fault.switch_reboot", m2);
  result.reconverged_at = FirstAt(trace, "fault.reconverged", m2);
  if (result.reconverged_at > 0 && result.reboot_at > 0) {
    result.reconverge_latency = result.reconverged_at - result.reboot_at;
  }

  for (const auto& node : s.net->topology().nodes()) {
    if (node.kind != sim::NodeKind::kSwitch) continue;
    if (auto* ff = s.orchestrator->fast_failover(node.id)) {
      result.failovers += ff->failovers();
      result.no_backup += ff->no_backup();
    }
    if (auto* agent = s.orchestrator->agent(node.id)) {
      result.flood_retries += agent->flood_retries();
      result.resyncs += agent->resyncs();
    }
  }

  if (options.recorder != nullptr) {
    auto& m = options.recorder->metrics();
    m.GetGauge("faulty_fig3.failover_latency_ms").Set(ToMillis(result.failover_latency));
    m.GetGauge("faulty_fig3.reconverge_ms").Set(ToMillis(result.reconverge_latency));
    m.GetCounter("faulty_fig3.failovers").Set(result.failovers);
    m.GetCounter("faulty_fig3.no_backup").Set(result.no_backup);
    m.GetCounter("faulty_fig3.flood_retries").Set(result.flood_retries);
    m.GetCounter("faulty_fig3.resyncs").Set(result.resyncs);
    m.GetCounter("faulty_fig3.fault_records").Set(result.fault_records);
  }
  return result;
}

}  // namespace fastflex::scenarios
