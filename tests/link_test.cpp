// Link model tests: serialization delay, propagation, drop-tail queueing,
// utilization sampling, and switch routing/fast-reroute behavior.
#include <gtest/gtest.h>

#include "control/routes.h"
#include "sim/host.h"
#include "sim/network.h"
#include "sim/switch_node.h"
#include "telemetry/telemetry.h"

namespace fastflex::sim {
namespace {

/// h1 - s1 - s2 - h2 line with a slow middle link.
struct Line {
  Topology t;
  NodeId s1, s2, h1, h2;
  LinkId mid;
  Line(double mid_rate = 8e6, std::uint32_t mid_queue = 10'000) {
    s1 = t.AddNode(NodeKind::kSwitch, "s1");
    s2 = t.AddNode(NodeKind::kSwitch, "s2");
    h1 = t.AddNode(NodeKind::kHost, "h1");
    h2 = t.AddNode(NodeKind::kHost, "h2");
    mid = t.AddDuplexLink(s1, s2, mid_rate, 10 * kMillisecond, mid_queue);
    t.AddDuplexLink(s1, h1, 1e9, kMillisecond, 1'000'000);
    t.AddDuplexLink(s2, h2, 1e9, kMillisecond, 1'000'000);
  }
};

Packet MakeUdp(Network& net, NodeId from, NodeId to, std::uint32_t size) {
  Packet p;
  p.kind = PacketKind::kUdp;
  p.src = net.topology().node(from).address;
  p.dst = net.topology().node(to).address;
  p.size_bytes = size;
  return p;
}

TEST(LinkTest, SerializationPlusPropagationDelay) {
  Line line;
  Network net(line.t, 1);
  control::InstallDstRoutes(net);

  // 8e6 bps link, 1000-byte packet -> 1 ms serialization + 10 ms prop.
  net.SendOnLink(line.mid, MakeUdp(net, line.s1, line.h2, 1000));
  net.RunUntil(10 * kMillisecond + 999 * kMicrosecond);
  EXPECT_EQ(net.link_runtime(line.mid).tx_packets, 1u);
  // The packet is delivered to s2 at exactly 11 ms.
  SwitchNode* s2 = net.switch_at(line.s2);
  EXPECT_EQ(s2->rx_packets(), 0u);
  net.RunUntil(11 * kMillisecond);
  EXPECT_EQ(s2->rx_packets(), 1u);
}

TEST(LinkTest, BackToBackPacketsQueueBehindEachOther) {
  Line line;
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  // Two packets sent at t=0: second arrives one serialization time later.
  net.SendOnLink(line.mid, MakeUdp(net, line.s1, line.h2, 1000));
  net.SendOnLink(line.mid, MakeUdp(net, line.s1, line.h2, 1000));
  SwitchNode* s2 = net.switch_at(line.s2);
  net.RunUntil(11 * kMillisecond);
  EXPECT_EQ(s2->rx_packets(), 1u);
  net.RunUntil(12 * kMillisecond);
  EXPECT_EQ(s2->rx_packets(), 2u);
}

TEST(LinkTest, DropTailWhenQueueFull) {
  Line line(8e6, /*mid_queue=*/2500);  // fits 2 x 1000B packets + slack
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  for (int i = 0; i < 5; ++i) {
    net.SendOnLink(line.mid, MakeUdp(net, line.s1, line.h2, 1000));
  }
  const auto& rt = net.link_runtime(line.mid);
  EXPECT_EQ(rt.tx_packets, 2u);
  EXPECT_EQ(rt.dropped_packets, 3u);
  net.RunUntil(kSecond);
  EXPECT_EQ(net.switch_at(line.s2)->rx_packets(), 2u);
}

TEST(LinkTest, QueueDrainsAllowingLaterTraffic) {
  Line line(8e6, 2500);
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  for (int i = 0; i < 5; ++i) net.SendOnLink(line.mid, MakeUdp(net, line.s1, line.h2, 1000));
  net.RunUntil(kSecond);  // queue fully drained
  net.SendOnLink(line.mid, MakeUdp(net, line.s1, line.h2, 1000));
  net.RunUntil(2 * kSecond);
  EXPECT_EQ(net.link_runtime(line.mid).dropped_packets, 3u);
  EXPECT_EQ(net.link_runtime(line.mid).tx_packets, 3u);
}

TEST(LinkTest, UtilizationSamplingTracksLoad) {
  Line line(8e6, 1'000'000);
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  net.EnableLinkSampling(10 * kMillisecond);
  // Saturate: send 100 x 1000B = 100 ms worth of transmission over 100 ms.
  for (int i = 0; i < 100; ++i) net.SendOnLink(line.mid, MakeUdp(net, line.s1, line.h2, 1000));
  net.RunUntil(100 * kMillisecond);
  EXPECT_GT(net.LinkUtilization(line.mid), 0.8);
  // After the burst drains, utilization decays.
  net.RunUntil(500 * kMillisecond);
  EXPECT_LT(net.LinkUtilization(line.mid), 0.1);
}

TEST(LinkTest, ReaderAtDepartInstantSeesSeqOrder) {
  // Same-time events fire in schedule order, and a departure takes its
  // place in that order when the packet is sent: a reader scheduled for the
  // depart instant before the send still sees the packet queued, and one
  // scheduled after it sees it gone.
  Line line;
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  // 1000 B on the 8 Mb/s link: the packet departs at exactly 1 ms.
  std::uint64_t before_send = 0;
  std::uint64_t after_send = 1;
  net.events().ScheduleAt(kMillisecond, [&] {
    before_send = net.link_runtime(line.mid).queued_bytes;
  });
  net.SendOnLink(line.mid, MakeUdp(net, line.s1, line.h2, 1000));
  net.events().ScheduleAt(kMillisecond, [&] {
    after_send = net.link_runtime(line.mid).queued_bytes;
  });
  net.RunUntil(2 * kMillisecond);
  EXPECT_EQ(before_send, 1000u);
  EXPECT_EQ(after_send, 0u);
}

/// Records two 6 x 1000 B bursts into a 10 kB queue on the 8 Mb/s link
/// (one departure per ms), the second sent `gap` after the first.
void RunTwoBursts(SimTime gap, telemetry::Recorder& rec) {
  Line line(8e6, 10'000);
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  net.SetTelemetry(&rec);
  for (int burst = 0; burst < 2; ++burst) {
    if (burst == 1) net.RunUntil(gap);
    for (int i = 0; i < 6; ++i) net.SendOnLink(line.mid, MakeUdp(net, line.s1, line.h2, 1000));
  }
  net.RunUntil(kSecond);
}

/// link.queue_spike events recorded by RunTwoBursts(gap).
std::size_t QueueSpikes(SimTime gap) {
  telemetry::Recorder rec;
  RunTwoBursts(gap, rec);
  return rec.trace().CountOf("link.queue_spike");
}

TEST(LinkTest, QueueSpikeLatchRearmsAfterDrain) {
  // Each burst crosses half the queue.  The latch re-arms only once the
  // queue drains below a quarter (2500 B) between them.
  EXPECT_EQ(QueueSpikes(kSecond), 2u);             // drained to 0 B
  EXPECT_EQ(QueueSpikes(4 * kMillisecond), 2u);    // 4 departed: 2000 B left
  EXPECT_EQ(QueueSpikes(3 * kMillisecond), 1u);    // 3 departed: 3000 B left
  EXPECT_EQ(QueueSpikes(0), 1u);                   // no drain

  // The event names the link and the queue at the crossing: the sixth
  // packet of the first burst lifts it past half capacity.
  telemetry::Recorder rec;
  RunTwoBursts(0, rec);
  const auto spikes = rec.trace().EventsNamed("link.queue_spike");
  ASSERT_EQ(spikes.size(), 1u);
  EXPECT_EQ(spikes[0]->Field("link"), Line().mid);
  EXPECT_EQ(spikes[0]->Field("queued"), 6000);
  EXPECT_EQ(spikes[0]->Field("capacity"), 10'000);
}

TEST(LinkTest, LinkDownDropsAreCounted) {
  Line line;
  Network net(line.t, 1);
  net.SetLinkUp(line.mid, false);
  net.SendOnLink(line.mid, MakeUdp(net, line.s1, line.h2, 100));
  EXPECT_EQ(net.link_runtime(line.mid).down_drops, 1u);
  EXPECT_EQ(net.link_runtime(line.mid).tx_packets, 0u);
}

TEST(SwitchTest, RoutesByDestinationAddress) {
  Line line;
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  Host* h1 = net.host_at(line.h1);
  h1->SendPacket(MakeUdp(net, line.h1, line.h2, 500));
  net.RunUntil(kSecond);
  // Delivered end to end: both switches forwarded it.
  EXPECT_EQ(net.switch_at(line.s1)->forwarded_packets(), 1u);
  EXPECT_EQ(net.switch_at(line.s2)->forwarded_packets(), 1u);
}

TEST(SwitchTest, NoRouteDropsAreCounted) {
  Line line;
  Network net(line.t, 1);  // no routes installed
  Host* h1 = net.host_at(line.h1);
  h1->SendPacket(MakeUdp(net, line.h1, line.h2, 500));
  net.RunUntil(kSecond);
  EXPECT_EQ(net.switch_at(line.s1)->no_route_drops(), 1u);
}

TEST(SwitchTest, OfflineSwitchDropsEverything) {
  Line line;
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  net.switch_at(line.s2)->SetOffline(true);
  net.host_at(line.h1)->SendPacket(MakeUdp(net, line.h1, line.h2, 500));
  net.RunUntil(kSecond);
  EXPECT_EQ(net.switch_at(line.s2)->offline_drops(), 1u);
  EXPECT_EQ(net.switch_at(line.s2)->forwarded_packets(), 0u);
}

TEST(SwitchTest, FlowRouteOverridesDstRouteForForwardPacketsOnly) {
  // Triangle: s1 connects to s2 directly and via s3.
  Topology t;
  const NodeId s1 = t.AddNode(NodeKind::kSwitch, "s1");
  const NodeId s2 = t.AddNode(NodeKind::kSwitch, "s2");
  const NodeId s3 = t.AddNode(NodeKind::kSwitch, "s3");
  const NodeId h1 = t.AddNode(NodeKind::kHost, "h1");
  const NodeId h2 = t.AddNode(NodeKind::kHost, "h2");
  t.AddDuplexLink(s1, s2, 1e9, kMillisecond, 100000);
  t.AddDuplexLink(s1, s3, 1e9, kMillisecond, 100000);
  t.AddDuplexLink(s3, s2, 1e9, kMillisecond, 100000);
  t.AddDuplexLink(s1, h1, 1e9, kMillisecond, 100000);
  t.AddDuplexLink(s2, h2, 1e9, kMillisecond, 100000);
  Network net(t, 1);
  control::InstallDstRoutes(net);

  // Pin flow 42's forward direction through s3.
  net.switch_at(s1)->SetFlowRoute(42, s3);
  Packet data = MakeUdp(net, h1, h2, 500);
  data.flow = 42;
  net.host_at(h1)->SendPacket(std::move(data));
  net.RunUntil(kSecond);
  EXPECT_EQ(net.switch_at(s3)->forwarded_packets(), 1u);

  // An ACK of flow 42 toward h1 ignores the flow route (it would point the
  // wrong way) and uses destination routing.
  Packet ack;
  ack.kind = PacketKind::kAck;
  ack.flow = 42;
  ack.src = t.node(h2).address;
  ack.dst = t.node(h1).address;
  ack.size_bytes = 40;
  net.host_at(h2)->SendPacket(std::move(ack));
  net.RunUntil(2 * kSecond);
  EXPECT_EQ(net.switch_at(s3)->forwarded_packets(), 1u);  // unchanged
}

/// s1 reaches s2 directly and through s3; h2 hangs off s2.
struct Triangle {
  Topology t;
  NodeId s1, s2, s3, h2;
  Triangle() {
    s1 = t.AddNode(NodeKind::kSwitch, "s1");
    s2 = t.AddNode(NodeKind::kSwitch, "s2");
    s3 = t.AddNode(NodeKind::kSwitch, "s3");
    h2 = t.AddNode(NodeKind::kHost, "h2");
    t.AddDuplexLink(s1, s2, 1e9, kMillisecond, 100000);
    t.AddDuplexLink(s1, s3, 1e9, kMillisecond, 100000);
    t.AddDuplexLink(s3, s2, 1e9, kMillisecond, 100000);
    t.AddDuplexLink(s2, h2, 1e9, kMillisecond, 100000);
  }
};

TEST(SwitchTest, FastRerouteUsesBackupWhenNeighborAvoided) {
  Triangle tri;
  Network net(tri.t, 1);
  control::InstallDstRoutes(net);

  // Primary next hop from s1 to h2 is s2; avoid it -> backup via s3.
  net.switch_at(tri.s1)->SetAvoidNeighbor(tri.s2, true);
  Packet p = MakeUdp(net, tri.s1, tri.h2, 500);
  net.switch_at(tri.s1)->SendRouted(std::move(p));
  net.RunUntil(kSecond);
  EXPECT_EQ(net.switch_at(tri.s3)->forwarded_packets(), 1u);

  // Clearing the avoid restores the primary.
  net.switch_at(tri.s1)->SetAvoidNeighbor(tri.s2, false);
  Packet q = MakeUdp(net, tri.s1, tri.h2, 500);
  net.switch_at(tri.s1)->SendRouted(std::move(q));
  net.RunUntil(2 * kSecond);
  EXPECT_EQ(net.switch_at(tri.s3)->forwarded_packets(), 1u);  // unchanged
}

TEST(SwitchTest, AvoidMarkIsSetOrClearNotCounted) {
  Triangle tri;
  Network net(tri.t, 1);
  control::InstallDstRoutes(net);
  SwitchNode* s1 = net.switch_at(tri.s1);
  const Packet p = MakeUdp(net, tri.s1, tri.h2, 500);
  s1->SetAvoidNeighbor(tri.s2, true);
  s1->SetAvoidNeighbor(tri.s2, true);
  EXPECT_TRUE(s1->Avoids(tri.s2));
  EXPECT_EQ(s1->NextHopFor(p), tri.s3);
  s1->SetAvoidNeighbor(tri.s2, false);
  EXPECT_FALSE(s1->Avoids(tri.s2));
  EXPECT_EQ(s1->NextHopFor(p), tri.s2);
}

TEST(SwitchTest, AvoidedFlowRouteFallsBackToDstRoute) {
  Triangle tri;
  Network net(tri.t, 1);
  control::InstallDstRoutes(net);
  SwitchNode* s1 = net.switch_at(tri.s1);
  Packet p = MakeUdp(net, tri.s1, tri.h2, 500);
  p.flow = 42;
  s1->SetFlowRoute(42, tri.s3);
  EXPECT_EQ(s1->NextHopFor(p), tri.s3);
  s1->SetAvoidNeighbor(tri.s3, true);
  EXPECT_EQ(s1->NextHopFor(p), tri.s2);  // the destination's primary
  s1->SendRouted(std::move(p));
  net.RunUntil(kSecond);
  EXPECT_EQ(net.switch_at(tri.s3)->forwarded_packets(), 0u);
  EXPECT_EQ(net.switch_at(tri.s2)->forwarded_packets(), 1u);
}

TEST(SwitchTest, AddressOfNoNodeIsANoRouteDrop) {
  Line line;
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  // A spoofed source's address, as a SYN-ACK to it would carry.
  Packet p = MakeUdp(net, line.h1, line.h2, 500);
  p.dst = (203u << 24) | (113u << 8) | 7u;
  net.host_at(line.h1)->SendPacket(std::move(p));
  net.RunUntil(kSecond);
  EXPECT_EQ(net.switch_at(line.s1)->no_route_drops(), 1u);
  EXPECT_EQ(net.switch_at(line.s1)->forwarded_packets(), 0u);
}

TEST(SwitchTest, TtlExpiryGeneratesIcmpReply) {
  Line line;
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  Packet probe;
  probe.kind = PacketKind::kTraceroute;
  probe.src = net.topology().node(line.h1).address;
  probe.dst = net.topology().node(line.h2).address;
  probe.ttl = 1;
  probe.seq = (1ULL << 8) | 1;
  bool got_reply = false;
  // Watch for the ICMP reply at h1 by running a traceroute-free check: the
  // reply is addressed to h1, so h1's switch s1 forwards twice (probe out,
  // reply back).
  net.host_at(line.h1)->SendPacket(std::move(probe));
  net.RunUntil(kSecond);
  // The probe expired at s1, which answered with a reply delivered to h1.
  EXPECT_EQ(net.switch_at(line.s1)->forwarded_packets(), 1u);  // the reply
  (void)got_reply;
}

}  // namespace
}  // namespace fastflex::sim
