// Fault-injection and survival tests: deterministic fault plans, injector
// physics, crash-during-flood mode reconvergence, link-flap resilience, and
// bit-identical fault telemetry under replay.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "control/orchestrator.h"
#include "control/routes.h"
#include "fault/fault.h"
#include "fault/injector.h"
#include "scenarios/builder.h"
#include "scenarios/faulty_fig3.h"
#include "scenarios/hotnets.h"
#include "telemetry/export.h"

namespace fastflex {
namespace {

// Time of the first trace event named `name`, or -1 when none exists.
SimTime FirstAt(const telemetry::Tracer& trace, std::string_view name) {
  const auto events = trace.EventsNamed(name);
  return events.empty() ? -1 : events.front()->t;
}

// The fault.* events in record order, one "t name k=v ..." line each.
std::string FaultEvents(const telemetry::Recorder& rec) {
  std::string out;
  for (const telemetry::TraceEvent* e : rec.trace().EventsWithPrefix("fault.")) {
    out += std::to_string(e->t) + " " + e->name;
    for (const auto& f : e->fields) out += " " + f.key + "=" + std::to_string(f.value);
    out += "\n";
  }
  return out;
}

TEST(FaultPlanTest, RandomIsDeterministicAndFabricScoped) {
  const auto h = scenarios::BuildHotnetsTopology();
  fault::FaultPlan::RandomOptions opts;
  opts.link_downs = 3;
  opts.switch_crashes = 2;
  opts.control_losses = 2;
  opts.corruptions = 1;

  const auto a = fault::FaultPlan::Random(h.topo, opts, 42);
  const auto b = fault::FaultPlan::Random(h.topo, opts, 42);
  ASSERT_EQ(a.events().size(), 8u);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const auto& ea = a.events()[i];
    const auto& eb = b.events()[i];
    EXPECT_EQ(ea.at, eb.at);
    EXPECT_EQ(ea.kind, eb.kind);
    EXPECT_EQ(ea.link, eb.link);
    EXPECT_EQ(ea.node, eb.node);
    EXPECT_EQ(ea.duration, eb.duration);
    EXPECT_DOUBLE_EQ(ea.probability, eb.probability);

    // Plan-wide invariants: times in window, durations/probabilities in
    // range, and only the switch fabric is ever touched.
    EXPECT_GE(ea.at, opts.start);
    EXPECT_LT(ea.at, opts.end);
    if (ea.kind == fault::FaultKind::kSwitchCrash) {
      EXPECT_EQ(h.topo.node(ea.node).kind, sim::NodeKind::kSwitch);
    } else {
      const auto& link = h.topo.link(ea.link);
      EXPECT_EQ(h.topo.node(link.from).kind, sim::NodeKind::kSwitch);
      EXPECT_EQ(h.topo.node(link.to).kind, sim::NodeKind::kSwitch);
    }
    EXPECT_GE(ea.duration, opts.min_duration);
    EXPECT_LE(ea.duration, opts.max_duration);
  }

  // A different seed lands on a different plan.
  const auto c = fault::FaultPlan::Random(h.topo, opts, 43);
  bool differs = false;
  for (std::size_t i = 0; i < c.events().size(); ++i) {
    differs |= c.events()[i].at != a.events()[i].at ||
               c.events()[i].link != a.events()[i].link ||
               c.events()[i].node != a.events()[i].node;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlanTest, NoSwitchFabricMeansEmptyPlan) {
  sim::Topology t;
  const NodeId sw = t.AddNode(sim::NodeKind::kSwitch, "sw");
  const NodeId h1 = t.AddNode(sim::NodeKind::kHost, "h1");
  const NodeId h2 = t.AddNode(sim::NodeKind::kHost, "h2");
  t.AddDuplexLink(sw, h1, 100e6, kMillisecond, 200'000);
  t.AddDuplexLink(sw, h2, 100e6, kMillisecond, 200'000);
  const auto plan = fault::FaultPlan::Random(t, {}, 1);
  EXPECT_TRUE(plan.empty());
}

TEST(FaultInjectorTest, LinkRepairRestoresService) {
  sim::Topology t;
  const NodeId s1 = t.AddNode(sim::NodeKind::kSwitch, "s1");
  const NodeId s2 = t.AddNode(sim::NodeKind::kSwitch, "s2");
  const NodeId ha = t.AddNode(sim::NodeKind::kHost, "ha");
  const NodeId hb = t.AddNode(sim::NodeKind::kHost, "hb");
  t.AddDuplexLink(ha, s1, 100e6, kMillisecond, 200'000);
  const LinkId fabric = t.AddDuplexLink(s1, s2, 100e6, kMillisecond, 200'000);
  t.AddDuplexLink(s2, hb, 100e6, kMillisecond, 200'000);

  sim::Network net(t, 1);
  control::InstallDstRoutes(net);
  sim::UdpParams udp;
  udp.rate_bps = 2e6;
  const FlowId flow = net.StartUdpFlow(ha, hb, udp, 0);

  telemetry::Recorder rec;
  fault::FaultPlan plan;
  plan.LinkDown(2 * kSecond, fabric, /*repair_after=*/1 * kSecond);
  fault::FaultInjector injector(&net, std::move(plan));
  injector.set_telemetry(&rec);
  injector.Arm();

  net.RunUntil(2 * kSecond + 10 * kMillisecond);
  const auto before = net.flow_stats(flow).delivered_bytes;
  EXPECT_GT(before, 0u);
  // The cut blackholes the flow for the full second...
  net.RunUntil(3 * kSecond);
  EXPECT_EQ(net.flow_stats(flow).delivered_bytes, before);
  // ...and repair restores delivery.
  net.RunUntil(5 * kSecond);
  EXPECT_GT(net.flow_stats(flow).delivered_bytes, before);

  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_EQ(injector.repaired(), 1u);
  const auto& trace = rec.trace();
  EXPECT_EQ(trace.CountOf("fault.link_down"), 1u);
  EXPECT_EQ(trace.CountOf("fault.link_up"), 1u);
  EXPECT_EQ(FirstAt(trace, "fault.link_down"), 2 * kSecond);
  EXPECT_EQ(FirstAt(trace, "fault.link_up"), 3 * kSecond);
}

TEST(ModeProtocolFaultTest, CrashDuringFloodReconverges) {
  // M2 crashes while a mode flood is in flight, missing both the flood and
  // its hardening retry.  On reboot the sync exchange must (a) restore the
  // mode bit from the neighbors and (b) fast-forward M2's epoch counter
  // past its own pre-crash floods so fresh alarms are not mistaken for
  // duplicates.
  scenarios::HotnetsTopology h = scenarios::BuildHotnetsTopology();
  sim::Network net(h.topo, 1);
  net.EnableLinkSampling(10 * kMillisecond);
  auto normal = scenarios::StartNormalTraffic(net, h);
  control::FastFlexOrchestrator orch(&net, {});
  orch.Deploy(normal.demands,
              [&h](sim::Network& n) { scenarios::SpreadDecoyRoutes(n, h); });

  // Two pre-crash floods from M2 itself: epochs 1 and 2 under origin M2.
  net.events().ScheduleAt(100 * kMillisecond, [&] {
    orch.agent(h.m2)->RaiseAlarm(dataplane::attack::kLinkFlooding,
                                 dataplane::mode::kLfaObfuscate, true);
  });
  net.events().ScheduleAt(200 * kMillisecond, [&] {
    orch.agent(h.m2)->RaiseAlarm(dataplane::attack::kVolumetricDdos,
                                 dataplane::mode::kVolumetricFilter, true);
  });

  fault::FaultPlan plan;
  plan.SwitchCrash(400 * kMillisecond, h.m2, /*reboot_after=*/400 * kMillisecond);
  fault::FaultInjector injector(&net, std::move(plan));
  injector.set_reboot_handler([&](NodeId sw) { orch.HandleSwitchReboot(sw); });
  injector.Arm();

  // While M2 is dark, A raises the LFA alarm: flood + retry both miss M2.
  net.events().ScheduleAt(500 * kMillisecond, [&] {
    orch.agent(h.a)->RaiseAlarm(dataplane::attack::kLinkFlooding,
                                dataplane::mode::kLfaReroute, true);
  });

  net.RunUntil(2 * kSecond);

  // Rebooted switch re-learned the mode it missed, from its neighbors.
  EXPECT_TRUE(orch.pipeline(h.m2)->ModeActive(dataplane::mode::kLfaReroute));
  EXPECT_EQ(orch.agent(h.m2)->resyncs(), 1u);
  // Epoch fast-forward: reboot reset the counter to 1, the sync request
  // consumed one epoch, and the echoed pre-crash epoch (2) pushed it past
  // both pre-crash floods.
  EXPECT_EQ(orch.agent(h.m2)->next_epoch(), 3u);
  // M2's own pre-crash assertions are replayed back to it as well: the
  // fabric still enforces those modes, and the defense only works if the
  // rebooted switch re-adopts the fabric's posture rather than waiting for
  // its re-armed detector to re-fire.
  EXPECT_TRUE(orch.pipeline(h.m2)->ModeActive(dataplane::mode::kLfaObfuscate));
  EXPECT_TRUE(orch.pipeline(h.m2)->ModeActive(dataplane::mode::kVolumetricFilter));
  // Every live switch still holds A's mode.
  EXPECT_DOUBLE_EQ(orch.FractionModeActive(dataplane::mode::kLfaReroute), 1.0);
}

TEST(ScenarioFaultTest, LinkFlapDoesNotWedge) {
  // Three rapid down/up flaps of the critical link in the middle of a
  // mitigated LFA: the defense must neither wedge (mode bits lost) nor
  // blackhole (failover keeps packets moving while the link is dark).
  fault::FaultPlan plan;
  {
    // Builder topology ids are deterministic; probe a throwaway copy.
    const auto ids = scenarios::BuildHotnetsTopology();
    plan.LinkDown(10 * kSecond, ids.critical1, 500 * kMillisecond);
    plan.LinkDown(12 * kSecond, ids.critical1, 500 * kMillisecond);
    plan.LinkDown(14 * kSecond, ids.critical1, 500 * kMillisecond);
  }
  auto boosters = boosters::DefaultBoosterSet();
  boosters.push_back("fast_failover");
  auto s = scenarios::ScenarioBuilder()
               .Seed(1)
               .Defense(scenarios::DefenseKind::kFastFlex)
               .Boosters(boosters)
               .EnableInt(false)
               .AttackAt(5 * kSecond)
               .Faults(std::move(plan))
               .Build();
  s.net->RunUntil(20 * kSecond);

  EXPECT_EQ(s.injector->injected(), 3u);
  EXPECT_EQ(s.injector->repaired(), 3u);
  // The mode protocol survived the flapping: defense still fully engaged.
  EXPECT_GT(s.orchestrator->FractionModeActive(dataplane::mode::kLfaReroute), 0.9);
  // Packets were steered around the dead link in the data plane.
  std::uint64_t failovers = 0;
  for (const auto& n : s.net->topology().nodes()) {
    if (n.kind != sim::NodeKind::kSwitch) continue;
    if (auto* f = s.orchestrator->fast_failover(n.id)) failovers += f->failovers();
  }
  EXPECT_GT(failovers, 0u);
}

TEST(FaultyFig3Test, FailoverAndReconvergenceObserved) {
  scenarios::FaultyFig3Options opt;
  opt.duration = 30 * kSecond;
  opt.link_fault_at = 14 * kSecond;
  opt.link_repair_after = 6 * kSecond;
  opt.crash_at = 18 * kSecond;
  opt.reboot_after = 2 * kSecond;
  const auto r = scenarios::RunFaultyFig3(opt);

  // Data-plane failover engaged within the detection window's order of
  // magnitude, not control-plane timescales.
  EXPECT_EQ(r.link_down_at, opt.link_fault_at);
  ASSERT_GT(r.first_failover_at, 0);
  EXPECT_GT(r.failover_latency, 0);
  EXPECT_LT(r.failover_latency, 1 * kSecond);
  EXPECT_GT(r.failovers, 0u);

  // The crashed switch rejoined and re-learned the active modes.
  EXPECT_EQ(r.reboot_at, opt.crash_at + opt.reboot_after);
  ASSERT_GT(r.reconverged_at, r.reboot_at);
  // Reconvergence is a one-hop sync exchange away, not a fresh detection:
  // well under half a second even with probe-loss jitter.
  EXPECT_LT(r.reconverge_latency, 500 * kMillisecond);
  EXPECT_GE(r.resyncs, 1u);
  EXPECT_GE(r.fault_records, 4u);  // link down/up, crash/reboot at minimum

  // The defense held.  A critical link is genuinely gone for 6 s and a
  // middle switch for 2 s, so capacity (not the attack) caps goodput below
  // the fault-free ~0.85 — but well above the undefended collapse.
  EXPECT_GT(r.fig3.mean_during_attack, 0.5);
}

TEST(FaultReplayTest, FaultTelemetryBitIdentical) {
  scenarios::FaultyFig3Options opt;
  opt.duration = 30 * kSecond;
  opt.link_fault_at = 14 * kSecond;
  opt.link_repair_after = 6 * kSecond;
  opt.crash_at = 18 * kSecond;
  opt.reboot_after = 2 * kSecond;

  telemetry::Recorder rec_a;
  opt.recorder = &rec_a;
  const auto a = scenarios::RunFaultyFig3(opt);
  telemetry::Recorder rec_b;
  opt.recorder = &rec_b;
  const auto b = scenarios::RunFaultyFig3(opt);

  // The fault events — and in fact the whole artifact — replay
  // byte-for-byte at the same seed.
  ASSERT_FALSE(FaultEvents(rec_a).empty());
  EXPECT_EQ(FaultEvents(rec_a), FaultEvents(rec_b));
  EXPECT_EQ(telemetry::ToJson(rec_a), telemetry::ToJson(rec_b));

  // Derived latencies agree too.
  EXPECT_EQ(a.failover_latency, b.failover_latency);
  EXPECT_EQ(a.reconverge_latency, b.reconverge_latency);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.flood_retries, b.flood_retries);
  EXPECT_EQ(a.fault_records, b.fault_records);
}

}  // namespace
}  // namespace fastflex
