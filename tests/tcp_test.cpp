// TCP-like transport tests: throughput, fairness, loss recovery, bounded
// flows, application-limited (attack-style) flows, and UDP pulsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>

#include "control/routes.h"
#include "sim/host.h"
#include "sim/network.h"
#include "sim/switch_node.h"
#include "sim/tcp.h"

namespace fastflex::sim {
namespace {

struct Line {
  Topology t;
  NodeId s1, s2;
  std::vector<NodeId> left, right;
  LinkId mid;
  explicit Line(int pairs = 1, double mid_rate = 20e6) {
    s1 = t.AddNode(NodeKind::kSwitch, "s1");
    s2 = t.AddNode(NodeKind::kSwitch, "s2");
    mid = t.AddDuplexLink(s1, s2, mid_rate, 20 * kMillisecond, 100'000);
    for (int i = 0; i < pairs; ++i) {
      const NodeId l = t.AddNode(NodeKind::kHost, "l" + std::to_string(i));
      const NodeId r = t.AddNode(NodeKind::kHost, "r" + std::to_string(i));
      t.AddDuplexLink(s1, l, 1e9, kMillisecond, 1'000'000);
      t.AddDuplexLink(s2, r, 1e9, kMillisecond, 1'000'000);
      left.push_back(l);
      right.push_back(r);
    }
  }
};

double RateOverWindow(Network& net, FlowId f, SimTime from, SimTime to) {
  const auto& series = net.flow_stats(f).goodput;
  double bytes = 0;
  for (SimTime t = from; t < to; t += 100 * kMillisecond) {
    bytes += series.BinTotal(static_cast<std::size_t>(t / (100 * kMillisecond)));
  }
  return bytes * 8.0 / ToSeconds(to - from);
}

TEST(TcpTest, SingleFlowApproachesLinkCapacity) {
  Line line(1, 20e6);
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  const FlowId f = net.StartTcpFlow(line.left[0], line.right[0], TcpParams{}, kSecond / 2);
  net.RunUntil(15 * kSecond);
  // AIMD sawtooth with queue ~= BDP averages ~70-85% of capacity.
  const double rate = RateOverWindow(net, f, 10 * kSecond, 15 * kSecond);
  EXPECT_GT(rate, 0.65 * 20e6);
  EXPECT_LT(rate, 1.05 * 20e6);
}

TEST(TcpTest, TwoFlowsShareFairly) {
  Line line(2, 20e6);
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  TcpParams p1, p2;
  p2.min_rto = 230 * kMillisecond;  // desynchronize timers
  const FlowId f1 = net.StartTcpFlow(line.left[0], line.right[0], p1, kSecond / 2);
  const FlowId f2 = net.StartTcpFlow(line.left[1], line.right[1], p2, kSecond);
  net.RunUntil(30 * kSecond);
  const double r1 = RateOverWindow(net, f1, 15 * kSecond, 30 * kSecond);
  const double r2 = RateOverWindow(net, f2, 15 * kSecond, 30 * kSecond);
  EXPECT_GT(r1 + r2, 0.65 * 20e6);  // the pair fills most of the link
  const double ratio = r1 / r2;
  EXPECT_GT(ratio, 0.4);  // and shares it within ~2.5x
  EXPECT_LT(ratio, 2.5);
}

TEST(TcpTest, BoundedFlowCompletesAndStops) {
  Line line(1, 20e6);
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  TcpParams p;
  p.total_bytes = 500'000;
  const FlowId f = net.StartTcpFlow(line.left[0], line.right[0], p, kSecond / 2);
  net.RunUntil(20 * kSecond);
  const auto& stats = net.flow_stats(f);
  EXPECT_TRUE(stats.completed);
  EXPECT_GE(stats.delivered_bytes, 500'000u);
  EXPECT_GT(stats.completed_at, kSecond / 2);
  EXPECT_LT(stats.completed_at, 10 * kSecond);
}

TEST(TcpTest, MaxCwndCapsRate) {
  Line line(1, 20e6);
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  TcpParams p;
  p.max_cwnd = 2.0;  // the "low-rate legitimate-looking" attack profile
  const FlowId f = net.StartTcpFlow(line.left[0], line.right[0], p, kSecond / 2);
  net.RunUntil(10 * kSecond);
  // RTT ~44 ms; 2 segments per RTT ~ 360 kbps << capacity.
  const double rate = RateOverWindow(net, f, 5 * kSecond, 10 * kSecond);
  EXPECT_LT(rate, 800e3);
  EXPECT_GT(rate, 100e3);
}

TEST(TcpTest, RecoversFromHeavyLossBurst) {
  // Tiny queue forces repeated loss bursts; throughput must survive.
  Topology t;
  const NodeId s1 = t.AddNode(NodeKind::kSwitch, "s1");
  const NodeId s2 = t.AddNode(NodeKind::kSwitch, "s2");
  const NodeId h1 = t.AddNode(NodeKind::kHost, "h1");
  const NodeId h2 = t.AddNode(NodeKind::kHost, "h2");
  t.AddDuplexLink(s1, s2, 10e6, 10 * kMillisecond, 15'000);  // ~15 packets
  t.AddDuplexLink(s1, h1, 1e9, kMillisecond, 1'000'000);
  t.AddDuplexLink(s2, h2, 1e9, kMillisecond, 1'000'000);
  Network net(t, 1);
  control::InstallDstRoutes(net);
  const FlowId f = net.StartTcpFlow(h1, h2, TcpParams{}, kSecond / 2);
  net.RunUntil(20 * kSecond);
  EXPECT_GT(net.flow_stats(f).retransmits, 0u);
  const double rate = RateOverWindow(net, f, 10 * kSecond, 20 * kSecond);
  EXPECT_GT(rate, 0.5 * 10e6);
}

TEST(TcpTest, StopFlowHaltsTransmission) {
  Line line(1, 20e6);
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  const FlowId f = net.StartTcpFlow(line.left[0], line.right[0], TcpParams{}, kSecond / 2);
  net.RunUntil(5 * kSecond);
  net.StopFlow(f);
  net.RunUntil(6 * kSecond);  // in-flight data drains
  const auto delivered = net.flow_stats(f).delivered_bytes;
  net.RunUntil(12 * kSecond);
  EXPECT_EQ(net.flow_stats(f).delivered_bytes, delivered);
  EXPECT_TRUE(net.flow_stats(f).stopped);
}

TEST(TcpTest, DeterministicAcrossRuns) {
  auto run = [] {
    Line line(2, 20e6);
    Network net(line.t, 99);
    control::InstallDstRoutes(net);
    const FlowId f1 = net.StartTcpFlow(line.left[0], line.right[0], TcpParams{}, kSecond / 2);
    const FlowId f2 = net.StartTcpFlow(line.left[1], line.right[1], TcpParams{}, kSecond);
    net.RunUntil(10 * kSecond);
    return std::pair{net.flow_stats(f1).delivered_bytes, net.flow_stats(f2).delivered_bytes};
  };
  EXPECT_EQ(run(), run());
}

TEST(TcpTest, RetransmitCounterVisibleToTelemetry) {
  Line line(1, 20e6);
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  const FlowId f = net.StartTcpFlow(line.left[0], line.right[0], TcpParams{}, kSecond / 2);
  net.RunUntil(15 * kSecond);
  // Slow-start overshoot guarantees at least one loss episode on this BDP.
  EXPECT_GT(net.flow_stats(f).retransmits, 0u);
}

TEST(TcpTest, OnePendingRtoTimerPerSender) {
  // Every ACK that advances snd_una re-arms the RTO.  The sender keeps one
  // timer event that moves to the armed key, so while this probe runs the
  // queue holds the in-flight packets' arrivals plus a constant: the link
  // sampler and the timer (briefly two, after a shrunken rto_ arms a key
  // earlier than the pending one's).
  Line line(1, 20e6);
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  net.EnableLinkSampling(10 * kMillisecond);
  const FlowId f = net.StartTcpFlow(line.left[0], line.right[0], TcpParams{}, 0);
  std::size_t worst_excess = 0;
  std::size_t peak_in_flight = 0;
  std::function<void()> probe = [&] {
    const std::size_t in_flight = net.pool().in_flight();
    const std::size_t pending = net.events().Pending();
    peak_in_flight = std::max(peak_in_flight, in_flight);
    if (pending > in_flight) worst_excess = std::max(worst_excess, pending - in_flight);
    net.events().ScheduleAfter(kMillisecond, probe);
  };
  net.events().ScheduleAt(0, probe);
  net.RunUntil(2 * kSecond);
  EXPECT_GT(net.flow_stats(f).delivered_bytes, 0u);
  EXPECT_GT(peak_in_flight, 50u);  // a full window in flight, so many ACKs
  EXPECT_LE(worst_excess, 3u);
}

/// Forwards to a TcpSender and notes when the last ACK arrived and the
/// rto() it left behind.
class AckTap : public FlowEndpoint {
 public:
  AckTap(Network& net, std::unique_ptr<TcpSender> sender)
      : net_(net), sender_(std::move(sender)) {}
  void Start() override { sender_->Start(); }
  void OnPacket(const Packet& pkt) override {
    sender_->OnPacket(pkt);
    last_ack_at = net_.Now();
    rto_after = sender_->rto();
  }
  const TcpSender& sender() const { return *sender_; }

  SimTime last_ack_at = 0;
  SimTime rto_after = 0;

 private:
  Network& net_;
  std::unique_ptr<TcpSender> sender_;
};

TEST(TcpTest, RtoFiresAtLastAckPlusRto) {
  Line line(1, 20e6);
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  Host* src = net.host_at(line.left[0]);
  Host* dst = net.host_at(line.right[0]);
  const FlowId flow = 1;
  TcpParams p;
  p.max_cwnd = 8;  // never overflows the queue: every ACK advances snd_una
  dst->AttachEndpoint(flow, std::make_unique<TcpReceiver>(&net, dst, flow, src->address(),
                                                          10'001, 80, p.mss));
  auto owned = std::make_unique<AckTap>(
      net, std::make_unique<TcpSender>(&net, src, flow, dst->address(), 10'001, 80, p));
  AckTap* tap = owned.get();
  src->AttachEndpoint(flow, std::move(owned));
  tap->Start();
  net.RunUntil(2 * kSecond);
  ASSERT_EQ(tap->sender().retransmits(), 0u);

  // Cut the path; the ACKs already past the cut land within ~25 ms.
  net.SetDuplexUp(line.mid, false);
  net.RunUntil(2 * kSecond + 100 * kMillisecond);
  ASSERT_EQ(tap->sender().retransmits(), 0u);
  const SimTime fire_at = tap->last_ack_at + tap->rto_after;
  ASSERT_GT(fire_at, net.Now());
  std::uint64_t just_before = 1;
  std::uint64_t at = 0;
  net.events().ScheduleAt(fire_at - 1, [&] { just_before = tap->sender().retransmits(); });
  net.events().ScheduleAt(fire_at, [&] { at = tap->sender().retransmits(); });
  net.RunUntil(fire_at);
  EXPECT_EQ(just_before, 0u);
  EXPECT_EQ(at, 1u);
}

TEST(UdpTest, CbrDeliversConfiguredRate) {
  Line line(1, 20e6);
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  UdpParams p;
  p.rate_bps = 5e6;
  p.packet_bytes = 1000;
  const FlowId f = net.StartUdpFlow(line.left[0], line.right[0], p, 0);
  net.RunUntil(10 * kSecond);
  const double rate = RateOverWindow(net, f, 2 * kSecond, 10 * kSecond);
  EXPECT_NEAR(rate, 5e6, 0.3e6);
}

TEST(UdpTest, PulsingAlternatesOnOff) {
  Line line(1, 20e6);
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  UdpParams p;
  p.rate_bps = 8e6;
  p.packet_bytes = 1000;
  p.on_duration = 500 * kMillisecond;
  p.off_duration = 500 * kMillisecond;
  const FlowId f = net.StartUdpFlow(line.left[0], line.right[0], p, 0);
  net.RunUntil(4 * kSecond);
  // Average over a whole period is half the on-rate.
  const double rate = RateOverWindow(net, f, kSecond, 4 * kSecond);
  EXPECT_NEAR(rate, 4e6, 1e6);
  // And at least one 100 ms bin in an off phase is empty.
  const auto& series = net.flow_stats(f).goodput;
  bool has_quiet_bin = false;
  for (std::size_t b = 10; b < 40; ++b) {
    if (series.BinTotal(b) == 0.0) has_quiet_bin = true;
  }
  EXPECT_TRUE(has_quiet_bin);
}

TEST(UdpTest, StopHaltsPulsingFlow) {
  Line line(1, 20e6);
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  UdpParams p;
  p.rate_bps = 8e6;
  p.on_duration = 200 * kMillisecond;
  p.off_duration = 200 * kMillisecond;
  const FlowId f = net.StartUdpFlow(line.left[0], line.right[0], p, 0);
  net.RunUntil(2 * kSecond);
  net.StopFlow(f);
  net.RunUntil(2 * kSecond + 200 * kMillisecond);
  const auto delivered = net.flow_stats(f).delivered_bytes;
  net.RunUntil(5 * kSecond);
  EXPECT_EQ(net.flow_stats(f).delivered_bytes, delivered);
}

}  // namespace
}  // namespace fastflex::sim
