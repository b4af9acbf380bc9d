// In-band telemetry tests: record-stack bounds, the source/transit/sink
// round trip on a line network, resource admission, collector analytics,
// and the INT-vs-traceroute path cross-check.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "control/routes.h"
#include "dataplane/int_ppm.h"
#include "dataplane/pipeline.h"
#include "sim/host.h"
#include "sim/network.h"
#include "sim/switch_node.h"
#include "telemetry/export.h"
#include "telemetry/int_collector.h"
#include "telemetry/telemetry.h"
#include "test_net.h"

namespace fastflex {
namespace {

using dataplane::IntMatchRule;
using dataplane::IntSinkPpm;
using dataplane::IntSourcePpm;
using dataplane::IntTransitPpm;
using telemetry::IntCollector;
using telemetry::IntHopRecord;
using telemetry::IntJourney;
using telemetry::kMaxIntHops;

// ---------------------------------------------------------------------------
// Record stack + lazy box
// ---------------------------------------------------------------------------

IntHopRecord Rec(NodeId sw, SimTime t, std::uint64_t queue = 0,
                 std::uint32_t word = 0, std::uint64_t epoch = 0) {
  IntHopRecord r;
  r.switch_id = sw;
  r.ingress_at = t;
  r.egress_at = t + kMicrosecond;
  r.queue_bytes = queue;
  r.mode_word = word;
  r.mode_epoch = epoch;
  return r;
}

TEST(IntStack, DepthIsClampedAndOverflowCounted) {
  sim::IntStack stack;
  for (std::size_t i = 0; i < kMaxIntHops; ++i) {
    EXPECT_TRUE(stack.Push(Rec(static_cast<NodeId>(i), static_cast<SimTime>(i))));
  }
  EXPECT_EQ(stack.hops.size(), kMaxIntHops);
  EXPECT_EQ(stack.dropped_hops, 0u);

  EXPECT_FALSE(stack.Push(Rec(99, 99)));
  EXPECT_FALSE(stack.Push(Rec(100, 100)));
  EXPECT_EQ(stack.hops.size(), kMaxIntHops);
  EXPECT_EQ(stack.dropped_hops, 2u);
  // The first kMaxIntHops records are the ones kept.
  EXPECT_EQ(stack.hops.front().switch_id, 0);
  EXPECT_EQ(stack.hops.back().switch_id, static_cast<NodeId>(kMaxIntHops - 1));
}

TEST(IntStack, BoxIsLazyAndDeepCopies) {
  sim::Packet plain;
  EXPECT_FALSE(plain.int_stack);
  sim::Packet plain_copy = plain;  // copying an unstamped packet stays cheap
  EXPECT_FALSE(plain_copy.int_stack);

  sim::Packet stamped;
  stamped.int_stack.GetOrCreate().Push(Rec(1, 10));
  sim::Packet copy = stamped;
  ASSERT_TRUE(copy.int_stack);
  copy.int_stack->Push(Rec(2, 20));
  // The copies diverge: each flooded copy accumulates its own hops.
  EXPECT_EQ(stamped.int_stack->hops.size(), 1u);
  EXPECT_EQ(copy.int_stack->hops.size(), 2u);

  copy.int_stack.Reset();
  EXPECT_FALSE(copy.int_stack);
  EXPECT_TRUE(stamped.int_stack);
}

// ---------------------------------------------------------------------------
// PPM round trip on a line network
// ---------------------------------------------------------------------------

struct IntRig {
  std::shared_ptr<const std::unordered_map<Address, NodeId>> host_edge;
  std::vector<std::shared_ptr<IntSourcePpm>> sources;
  std::vector<std::shared_ptr<IntTransitPpm>> transits;
  std::vector<std::shared_ptr<IntSinkPpm>> sinks;
};

IntRig InstallInt(testing::TestNet& tn, IntCollector* collector,
                  IntMatchRule rule = {}, bool activate = true) {
  IntRig rig;
  rig.host_edge = control::BuildHostEdgeMap(*tn.net);
  for (std::size_t i = 0; i < tn.switches.size(); ++i) {
    dataplane::Pipeline* pipe = tn.pipe(i);
    auto src = std::make_shared<IntSourcePpm>(tn.sw(i), rig.host_edge, rule);
    EXPECT_TRUE(pipe->Install(src));
    runtime::ModeProtocolPpm* agent = tn.agent(i);
    auto transit = std::make_shared<IntTransitPpm>(
        tn.net.get(), tn.sw(i), pipe, [agent] { return agent->mode_applications(); });
    EXPECT_TRUE(pipe->Install(transit));
    auto sink = std::make_shared<IntSinkPpm>(tn.sw(i), rig.host_edge, collector);
    EXPECT_TRUE(pipe->Install(sink));
    if (activate) pipe->ActivateMode(dataplane::mode::kIntTelemetry);
    rig.sources.push_back(std::move(src));
    rig.transits.push_back(std::move(transit));
    rig.sinks.push_back(std::move(sink));
  }
  return rig;
}

TEST(IntPpm, SourceTransitSinkRoundTripOnFourHopLine) {
  auto tn = testing::MakeLineNet(4);
  IntCollector col;
  IntRig rig = InstallInt(tn, &col);

  sim::TcpParams params;
  params.total_bytes = 50'000;
  const FlowId flow = tn.net->StartTcpFlow(tn.hosts[0], tn.hosts[1], params, kMillisecond);
  tn.net->RunUntil(5 * kSecond);
  ASSERT_TRUE(tn.net->flow_stats(flow).completed);

  ASSERT_GT(col.journeys(), 0u);
  EXPECT_GT(rig.sources[0]->stamped(), 0u);
  EXPECT_GT(rig.transits[1]->appended(), 0u);
  // Data flows h0 -> h1, so only the far-end sink completes journeys; ACKs
  // are not stamped, so the near-end sink sees nothing.
  EXPECT_EQ(col.journeys(), rig.sinks[3]->journeys_completed());
  EXPECT_EQ(rig.sinks[0]->journeys_completed(), 0u);

  const std::vector<NodeId> want(tn.switches.begin(), tn.switches.end());
  for (const IntJourney& j : col.recent_journeys()) {
    EXPECT_EQ(j.flow, flow);
    EXPECT_EQ(j.PathSwitches(), want);  // every hop, in order
    EXPECT_EQ(j.dropped_hops, 0u);
    EXPECT_GT(j.PathLatency(), 0);
    for (std::size_t h = 0; h < j.hops.size(); ++h) {
      EXPECT_GT(j.hops[h].egress_at, j.hops[h].ingress_at);
      EXPECT_NE(j.hops[h].mode_word & dataplane::mode::kIntTelemetry, 0u);
      if (h > 0) {
        EXPECT_GE(j.hops[h].ingress_at, j.hops[h - 1].ingress_at);
      }
    }
  }

  // One stable path: no churn; one flow summary with a populated latency
  // distribution.
  EXPECT_EQ(col.path_churn_total(), 0u);
  ASSERT_EQ(col.flows().size(), 1u);
  const auto& summary = col.flows().begin()->second;
  EXPECT_EQ(summary.journeys, col.journeys());
  EXPECT_GT(summary.latency_count, 0u);
  EXPECT_GE(summary.latency_max, summary.latency_min);
  EXPECT_EQ(summary.last_path, want);
}

TEST(IntPpm, NoStampingWhileModeIsOff) {
  auto tn = testing::MakeLineNet(4);
  IntCollector col;
  IntRig rig = InstallInt(tn, &col, {}, /*activate=*/false);

  sim::TcpParams params;
  params.total_bytes = 20'000;
  const FlowId flow = tn.net->StartTcpFlow(tn.hosts[0], tn.hosts[1], params, kMillisecond);
  tn.net->RunUntil(5 * kSecond);

  // Traffic flows normally, but the mode gate keeps INT silent.
  EXPECT_TRUE(tn.net->flow_stats(flow).completed);
  EXPECT_EQ(col.journeys(), 0u);
  for (const auto& src : rig.sources) EXPECT_EQ(src->stamped(), 0u);
  for (const auto& t : rig.transits) EXPECT_EQ(t->appended(), 0u);
}

TEST(IntPpm, MidRunActivationStampsOnlyFromThenOn) {
  auto tn = testing::MakeLineNet(4);
  IntCollector col;
  IntRig rig = InstallInt(tn, &col, {}, /*activate=*/false);

  sim::TcpParams params;  // unbounded: runs until the end of the sim
  tn.net->StartTcpFlow(tn.hosts[0], tn.hosts[1], params, kMillisecond);
  tn.net->RunUntil(2 * kSecond);
  EXPECT_EQ(col.journeys(), 0u);

  // Flip the INT mode on everywhere, as a mode-change flood would.
  for (std::size_t i = 0; i < tn.switches.size(); ++i) {
    tn.pipe(i)->ActivateMode(dataplane::mode::kIntTelemetry);
  }
  tn.net->RunUntil(4 * kSecond);
  EXPECT_GT(col.journeys(), 0u);
  for (const IntJourney& j : col.recent_journeys()) {
    EXPECT_GE(j.hops.front().ingress_at, 2 * kSecond);
  }
}

TEST(IntPpm, TransitIsRejectedWhenItDoesNotFit) {
  auto tn = testing::MakeLineNet(2);
  // A starved switch: the transit module (2 stages, 1 MB, 4 ALUs) must be
  // refused by admission control, leaving the pipeline untouched.
  dataplane::Pipeline tiny(dataplane::ResourceVector{1.0, 0.5, 0.0, 2.0});
  auto transit = std::make_shared<IntTransitPpm>(tn.net.get(), tn.sw(0), &tiny);
  EXPECT_FALSE(tiny.Install(transit));
  EXPECT_TRUE(tiny.modules().empty());
  EXPECT_TRUE(tiny.used().IsZero());

  // The same module fits a default-capacity switch.
  dataplane::Pipeline roomy(dataplane::DefaultSwitchCapacity());
  EXPECT_TRUE(roomy.Install(transit));
  EXPECT_FALSE(roomy.used().IsZero());
}

TEST(IntPpm, LongPathsTruncateAtMaxDepth) {
  auto tn = testing::MakeLineNet(static_cast<int>(kMaxIntHops) + 2);
  IntCollector col;
  IntRig rig = InstallInt(tn, &col);

  sim::TcpParams params;
  params.total_bytes = 10'000;
  tn.net->StartTcpFlow(tn.hosts[0], tn.hosts[1], params, kMillisecond);
  tn.net->RunUntil(10 * kSecond);

  ASSERT_GT(col.journeys(), 0u);
  EXPECT_EQ(col.truncated_journeys(), col.journeys());
  EXPECT_GT(col.dropped_hop_records(), 0u);
  for (const IntJourney& j : col.recent_journeys()) {
    EXPECT_EQ(j.hops.size(), kMaxIntHops);  // first 8 hops kept
    EXPECT_EQ(j.dropped_hops, 2u);          // 10-switch line: 2 counted, not stored
    EXPECT_EQ(j.hops.front().switch_id, tn.switches.front());
  }
  // The overflow is charged at the hops past the bound.
  EXPECT_GT(rig.transits[kMaxIntHops]->overflowed(), 0u);
}

TEST(IntPpm, MatchRuleFiltersAndSamples) {
  // A destination filter that matches nothing: no stamping at all.
  {
    auto tn = testing::MakeLineNet(3);
    IntCollector col;
    IntMatchRule rule;
    rule.dsts = {tn.net->topology().node(tn.hosts[0]).address};  // only h0 (a source)
    IntRig rig = InstallInt(tn, &col, rule);
    sim::TcpParams params;
    params.total_bytes = 20'000;
    tn.net->StartTcpFlow(tn.hosts[0], tn.hosts[1], params, kMillisecond);
    tn.net->RunUntil(5 * kSecond);
    EXPECT_EQ(col.journeys(), 0u);
    EXPECT_EQ(rig.sources[0]->stamped(), 0u);
  }
  // 1-in-5 sampling: journeys arrive but far fewer than segments sent.
  {
    auto tn = testing::MakeLineNet(3);
    IntCollector col;
    IntMatchRule rule;
    rule.sample_every = 5;
    InstallInt(tn, &col, rule);
    sim::TcpParams params;
    params.total_bytes = 50'000;  // 50 segments at the default MSS
    tn.net->StartTcpFlow(tn.hosts[0], tn.hosts[1], params, kMillisecond);
    tn.net->RunUntil(5 * kSecond);
    EXPECT_GT(col.journeys(), 0u);
    EXPECT_LT(col.journeys(), 25u);
  }
}

/// Steers every packet to one neighbor: a forwarding decision made after
/// INT transit has read the egress.
class OverridePpm : public dataplane::Ppm {
 public:
  explicit OverridePpm(NodeId via)
      : Ppm("override", {dataplane::PpmKind::kForwardingOverride, {}}, {}), via_(via) {}
  void Process(sim::PacketContext& ctx) override { ctx.next_hop_override = via_; }

 private:
  NodeId via_;
};

TEST(IntPpm, LaterOverrideLeavesTheRecordOnTheTableEgress) {
  // s0 reaches s2 over a slow direct link (the table's choice) and over a
  // fast detour through s1, which a PPM after transit picks instead.
  sim::Topology topo;
  const NodeId s0 = topo.AddNode(sim::NodeKind::kSwitch, "s0");
  const NodeId s1 = topo.AddNode(sim::NodeKind::kSwitch, "s1");
  const NodeId s2 = topo.AddNode(sim::NodeKind::kSwitch, "s2");
  const NodeId h0 = topo.AddNode(sim::NodeKind::kHost, "h0");
  const NodeId h1 = topo.AddNode(sim::NodeKind::kHost, "h1");
  const LinkId direct = topo.AddDuplexLink(s0, s2, 10e6, kMillisecond, 200'000);
  const LinkId detour = topo.AddDuplexLink(s0, s1, 100e6, kMillisecond, 200'000);
  topo.AddDuplexLink(s1, s2, 100e6, kMillisecond, 200'000);
  topo.AddDuplexLink(s0, h0, 100e6, kMillisecond, 200'000);
  topo.AddDuplexLink(s2, h1, 100e6, kMillisecond, 200'000);
  sim::Network net(topo, 1);
  control::InstallDstRoutes(net);

  IntCollector col;
  const auto host_edge = control::BuildHostEdgeMap(net);
  std::vector<std::unique_ptr<dataplane::Pipeline>> pipes;
  for (NodeId s : {s0, s1, s2}) {
    auto pipe = std::make_unique<dataplane::Pipeline>(dataplane::DefaultSwitchCapacity());
    sim::SwitchNode* sw = net.switch_at(s);
    ASSERT_TRUE(pipe->Install(std::make_shared<IntSourcePpm>(sw, host_edge, IntMatchRule{})));
    ASSERT_TRUE(pipe->Install(std::make_shared<IntTransitPpm>(&net, sw, pipe.get())));
    if (s == s0) {
      ASSERT_TRUE(pipe->Install(std::make_shared<OverridePpm>(s1)));
    }
    ASSERT_TRUE(pipe->Install(std::make_shared<IntSinkPpm>(sw, host_edge, &col)));
    pipe->ActivateMode(dataplane::mode::kIntTelemetry);
    sw->SetProcessor(pipe.get());
    pipes.push_back(std::move(pipe));
  }
  sim::Packet pkt;
  pkt.kind = sim::PacketKind::kUdp;
  pkt.src = topo.node(h0).address;
  pkt.dst = topo.node(h1).address;
  pkt.size_bytes = 1000;
  ASSERT_EQ(net.switch_at(s0)->NextHopFor(pkt), s2);
  net.host_at(h0)->SendPacket(std::move(pkt));
  net.RunUntil(kSecond);

  // The packet left s0 on the override ...
  EXPECT_EQ(net.link_runtime(detour).tx_packets, 1u);
  EXPECT_EQ(net.link_runtime(direct).tx_packets, 0u);
  ASSERT_EQ(col.journeys(), 1u);
  const IntJourney j = col.recent_journeys().back();
  EXPECT_EQ(j.PathSwitches(), (std::vector<NodeId>{s0, s1, s2}));
  // ... while s0's record saw the table's egress: 1000 bytes serialize in
  // 800 us on the idle 10 Mbps direct link (80 us on the detour).
  EXPECT_EQ(j.hops[0].egress_at - j.hops[0].ingress_at, 800 * kMicrosecond);
}

// ---------------------------------------------------------------------------
// Cross-check: the in-band path must agree with traceroute's view
// ---------------------------------------------------------------------------

TEST(IntPpm, IntPathMatchesTraceroutePath) {
  auto tn = testing::MakeLineNet(5);
  IntCollector col;
  InstallInt(tn, &col);

  sim::TcpParams params;
  params.total_bytes = 20'000;
  tn.net->StartTcpFlow(tn.hosts[0], tn.hosts[1], params, kMillisecond);
  tn.net->RunUntil(5 * kSecond);
  ASSERT_GT(col.journeys(), 0u);

  const Address dst_addr = tn.net->topology().node(tn.hosts[1]).address;
  sim::TracerouteResult tr;
  bool done = false;
  tn.net->host_at(tn.hosts[0])->Traceroute(dst_addr, 16, 500 * kMillisecond,
                                           [&](const sim::TracerouteResult& r) {
                                             tr = r;
                                             done = true;
                                           });
  tn.net->RunUntil(15 * kSecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(tr.reached_destination);
  ASSERT_GT(tr.hops.size(), 1u);

  // Traceroute reports switch router addresses then the destination; the
  // journey reports switch ids.  Map ids to addresses and compare hop by
  // hop — the two observation channels must tell the same story.
  const IntJourney j = col.recent_journeys().back();
  std::vector<Address> int_path;
  for (NodeId s : j.PathSwitches()) {
    int_path.push_back(tn.net->topology().node(s).address);
  }
  const std::vector<Address> tr_switches(tr.hops.begin(), tr.hops.end() - 1);
  EXPECT_EQ(int_path, tr_switches);
  EXPECT_EQ(tr.hops.back(), dst_addr);
}

// ---------------------------------------------------------------------------
// Collector analytics
// ---------------------------------------------------------------------------

IntJourney MakeJourney(FlowId flow, const std::vector<NodeId>& path, SimTime t0,
                       std::uint64_t queue = 0, std::uint32_t word = 0,
                       std::uint64_t epoch = 0, std::uint64_t seq = 0) {
  IntJourney j;
  j.flow = flow;
  j.seq = seq;
  j.sent_at = t0;
  SimTime t = t0;
  for (NodeId sw : path) {
    j.hops.push_back(Rec(sw, t, queue, word, epoch));
    t += kMillisecond;
  }
  j.completed_at = t;
  return j;
}

TEST(IntCollectorTest, DetectsPathChurn) {
  IntCollector col;
  col.Ingest(MakeJourney(7, {1, 2, 3}, kSecond, 0, 0, 0, 1));
  EXPECT_EQ(col.path_churn_total(), 0u);  // a first path is not churn
  EXPECT_EQ(col.flows().at(7).last_path, (std::vector<NodeId>{1, 2, 3}));
  col.Ingest(MakeJourney(7, {1, 2, 3}, 2 * kSecond, 0, 0, 0, 2));
  EXPECT_EQ(col.path_churn_total(), 0u);

  // The reroute: hop 2 is replaced by hop 4.
  col.Ingest(MakeJourney(7, {1, 4, 3}, 3 * kSecond, 0, 0, 0, 3));
  EXPECT_EQ(col.path_churn_total(), 1u);
  ASSERT_EQ(col.churn_events().size(), 1u);
  EXPECT_EQ(col.churn_events()[0].flow, 7);
  EXPECT_EQ(col.churn_events()[0].prev_path, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(col.churn_events()[0].path, (std::vector<NodeId>{1, 4, 3}));

  // Staying on the new path is not churn; another flow's path is not churn.
  col.Ingest(MakeJourney(7, {1, 4, 3}, 4 * kSecond, 0, 0, 0, 4));
  col.Ingest(MakeJourney(8, {1, 2, 3}, 4 * kSecond, 0, 0, 0, 1));
  EXPECT_EQ(col.path_churn_total(), 1u);
  EXPECT_EQ(col.flows().at(7).path_changes, 1u);
  EXPECT_EQ(col.flows().at(8).path_changes, 0u);

  // Moving back is churn again, from the new path to the old one.
  col.Ingest(MakeJourney(7, {1, 2, 3}, 5 * kSecond, 0, 0, 0, 5));
  EXPECT_EQ(col.path_churn_total(), 2u);
  EXPECT_EQ(col.flows().at(7).path_changes, 2u);
  EXPECT_EQ(col.flows().at(7).last_path, (std::vector<NodeId>{1, 2, 3}));
  ASSERT_EQ(col.churn_events().size(), 2u);
  EXPECT_EQ(col.churn_events()[1].seq, 5u);
  EXPECT_EQ(col.churn_events()[1].prev_path, (std::vector<NodeId>{1, 4, 3}));
  EXPECT_EQ(col.churn_events()[1].path, (std::vector<NodeId>{1, 2, 3}));
}

TEST(IntCollectorTest, RecentJourneysKeepTheLastCapOldestFirst) {
  constexpr std::size_t kCap = IntCollector::kRecentCap;
  IntCollector col;
  std::uint64_t seq = 0;
  auto ingest_until = [&](std::uint64_t n) {
    for (; seq < n; ++seq) {
      col.Ingest(MakeJourney(static_cast<FlowId>(seq % 3), {1, 2},
                             static_cast<SimTime>(seq) * kMillisecond, 0, 0, 0, seq));
    }
  };
  // Filling, exactly full, and wrapped past the cap.
  for (const std::uint64_t n : {std::uint64_t{3}, std::uint64_t{kCap}, std::uint64_t{kCap + 10}}) {
    ingest_until(n);
    const std::vector<IntJourney> recent = col.recent_journeys();
    ASSERT_EQ(recent.size(), std::min<std::size_t>(n, kCap)) << "after " << n;
    for (std::size_t i = 0; i < recent.size(); ++i) {
      EXPECT_EQ(recent[i].seq, n - recent.size() + i) << "after " << n << ", position " << i;
    }
  }
  col.Reset();
  EXPECT_TRUE(col.recent_journeys().empty());
  col.Ingest(MakeJourney(1, {1, 2}, 0, 0, 0, 0, 99));
  ASSERT_EQ(col.recent_journeys().size(), 1u);
  EXPECT_EQ(col.recent_journeys()[0].seq, 99u);
}

TEST(IntCollectorTest, HottestHopIsPerTimeWindow) {
  IntCollector col(kSecond);
  // Switch 1 is hot in the first second, switch 2 in the second.
  col.Ingest(MakeJourney(1, {1}, 100 * kMillisecond, /*queue=*/100'000));
  col.Ingest(MakeJourney(1, {2}, 200 * kMillisecond, /*queue=*/40'000));
  col.Ingest(MakeJourney(1, {2}, 1300 * kMillisecond, /*queue=*/500'000));

  auto first = col.HottestHop(0, kSecond);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->switch_id, 1);
  EXPECT_EQ(first->max_queue_bytes, 100'000u);

  auto second = col.HottestHop(kSecond, 2 * kSecond);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->switch_id, 2);
  EXPECT_EQ(second->max_queue_bytes, 500'000u);

  auto whole = col.HottestHop(0, 2 * kSecond);
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->switch_id, 2);

  EXPECT_FALSE(col.HottestHop(kSecond, kSecond).has_value());
}

TEST(IntCollectorTest, ModeObservationsAreEpochOrdered) {
  IntCollector col;
  // Journeys can complete out of order; the per-switch mode epoch puts the
  // observations back in application order.
  col.Ingest(MakeJourney(1, {5}, 3 * kSecond, 0, /*word=*/0x41, /*epoch=*/2));
  col.Ingest(MakeJourney(2, {5}, 2 * kSecond, 0, /*word=*/0x40, /*epoch=*/1));

  // The stale (epoch 1) record must not register as a flip back to 0x40.
  ASSERT_EQ(col.hops().count(5), 1u);
  EXPECT_EQ(col.hops().at(5).mode_changes, 0u);
  EXPECT_EQ(col.mode_observations().size(), 0u);

  // A genuinely newer word is a flip.
  col.Ingest(MakeJourney(3, {5}, 4 * kSecond, 0, /*word=*/0x43, /*epoch=*/3));
  EXPECT_EQ(col.hops().at(5).mode_changes, 1u);
  ASSERT_EQ(col.mode_observations().size(), 1u);
  EXPECT_EQ(col.mode_observations()[0].switch_id, 5);
  EXPECT_EQ(col.mode_observations()[0].prev_word, 0x41u);
  EXPECT_EQ(col.mode_observations()[0].word, 0x43u);

  // First sighting of each bit is by record ingress time, not arrival order.
  ASSERT_TRUE(col.FirstModeObservation(0x40).has_value());
  EXPECT_EQ(*col.FirstModeObservation(0x40), 2 * kSecond);
  ASSERT_TRUE(col.FirstModeObservation(0x1).has_value());
  EXPECT_EQ(*col.FirstModeObservation(0x1), 3 * kSecond);
  EXPECT_FALSE(col.FirstModeObservation(0x80).has_value());
}

TEST(IntCollectorTest, JsonSectionIsDeterministicAndGatedOnData) {
  telemetry::Recorder empty;
  EXPECT_EQ(telemetry::ToJson(empty).find("\"int\":"), std::string::npos);

  auto feed = [](IntCollector& col) {
    col.Ingest(MakeJourney(7, {1, 2}, kSecond, 1000, 0x40, 1));
    col.Ingest(MakeJourney(7, {1, 3}, 2 * kSecond, 2000, 0x41, 2));
  };
  telemetry::Recorder rec1, rec2;
  feed(rec1.int_collector());
  feed(rec2.int_collector());
  const std::string json1 = telemetry::ToJson(rec1);
  EXPECT_EQ(json1, telemetry::ToJson(rec2));

  EXPECT_NE(json1.find("\"int\":{\"journeys\":2"), std::string::npos);
  EXPECT_NE(json1.find("\"path_churn_total\":1"), std::string::npos);
  EXPECT_NE(json1.find("\"mode_first_seen\":{\"1\":2000000000,\"64\":1000000000}"),
            std::string::npos);
  EXPECT_NE(json1.find("\"churn_events\":[{"), std::string::npos);
}

}  // namespace
}  // namespace fastflex
