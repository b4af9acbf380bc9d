// LFA booster unit tests: detector classification (the Crossfire
// signature), suspicion tag adoption, alarm raise/clear hysteresis, the
// probabilistic dropper, utilization-probe rerouting, and the obfuscator's
// canonical-path reporting.
#include <gtest/gtest.h>

#include "boosters/dropper.h"
#include "boosters/lfa_detector.h"
#include "boosters/obfuscator.h"
#include "boosters/reroute.h"
#include "test_net.h"

namespace fastflex::boosters {
namespace {

using fastflex::testing::MakeLineNet;
using fastflex::testing::TestNet;

struct DetectorHarness {
  TestNet tn = MakeLineNet(2);
  std::shared_ptr<SuspiciousSrcBloomPpm> bloom;
  std::shared_ptr<DstFlowCountSketchPpm> sketch;
  std::shared_ptr<LfaDetectorPpm> detector;
  std::vector<std::tuple<std::uint32_t, std::uint32_t, bool>> alarms;

  explicit DetectorHarness(LfaConfig config = {}) {
    bloom = std::make_shared<SuspiciousSrcBloomPpm>();
    sketch = std::make_shared<DstFlowCountSketchPpm>();
    detector = std::make_shared<LfaDetectorPpm>(
        tn.net.get(), tn.sw(0), bloom, sketch, config,
        [this](std::uint32_t a, std::uint32_t m, bool on) { alarms.emplace_back(a, m, on); });
    tn.pipe(0)->Install(bloom);
    tn.pipe(0)->Install(sketch);
    tn.pipe(0)->Install(detector);
  }

  /// Feeds one packet through the detector; returns its suspicion tag.
  int Feed(Address src, Address dst, std::uint32_t size, std::uint64_t seq = 0,
           std::uint16_t sport = 1000) {
    sim::Packet pkt;
    pkt.kind = sim::PacketKind::kData;
    pkt.flow = static_cast<FlowId>((static_cast<std::uint64_t>(src) << 16) | sport);
    pkt.src = src;
    pkt.dst = dst;
    pkt.src_port = sport;
    pkt.dst_port = 80;
    pkt.size_bytes = size;
    pkt.seq = seq;
    sim::PacketContext ctx{pkt, tn.sw(0), kInvalidLink, tn.net->Now(), false, false,
                           kInvalidNode, {}};
    detector->Process(ctx);
    return static_cast<int>(pkt.TagOr(sim::tag::kSuspicion, 0));
  }
};

TEST(LfaDetectorTest, YoungFlowsAreNotSuspicious) {
  DetectorHarness h;
  // 100 distinct flows to one dst, but all brand new.
  for (int f = 0; f < 100; ++f) {
    EXPECT_EQ(h.Feed(static_cast<Address>(100 + f), 999, 500, 1,
                     static_cast<std::uint16_t>(f)),
              0);
  }
}

TEST(LfaDetectorTest, PersistentLowRateConvergingFlowsScoreHigh) {
  LfaConfig config;
  config.dst_flow_alarm = 20;
  DetectorHarness h(config);
  // 50 flows converge on dst 999; feed a first packet each, advance time
  // past the persistence threshold, feed again at a low byte rate.
  for (int f = 0; f < 50; ++f) {
    h.Feed(static_cast<Address>(100 + f), 999, 200, 1, static_cast<std::uint16_t>(f));
  }
  h.tn.net->RunUntil(3 * kSecond);
  for (int f = 0; f < 50; ++f) {
    const int score = h.Feed(static_cast<Address>(100 + f), 999, 200, 2,
                             static_cast<std::uint16_t>(f));
    EXPECT_GE(score, config.suspicion_base) << "flow " << f;
  }
  // Their sources are now in the shared bloom filter.
  EXPECT_TRUE(h.bloom->bloom().MayContain(100));
  EXPECT_TRUE(h.bloom->bloom().MayContain(149));
}

TEST(LfaDetectorTest, ExtremeConvergenceEarnsTopScore) {
  LfaConfig config;
  config.dst_flow_alarm = 10;
  DetectorHarness h(config);
  for (int f = 0; f < 40; ++f) {  // 40 >= 2 * 10 + headroom
    h.Feed(static_cast<Address>(100 + f), 999, 200, 1, static_cast<std::uint16_t>(f));
  }
  h.tn.net->RunUntil(3 * kSecond);
  const int score = h.Feed(100, 999, 200, 2, 0);
  EXPECT_EQ(score, config.suspicion_high);
}

TEST(LfaDetectorTest, HighRateFlowsStayClean) {
  LfaConfig config;
  config.dst_flow_alarm = 5;
  DetectorHarness h(config);
  // Plenty of convergence, but this flow moves real bytes.
  for (int f = 0; f < 20; ++f) {
    h.Feed(static_cast<Address>(100 + f), 999, 200, 1, static_cast<std::uint16_t>(f));
  }
  h.tn.net->RunUntil(2 * kSecond);
  // 2 MB over 2 s = 8 Mbps >> low_rate threshold.
  for (int i = 0; i < 20; ++i) h.Feed(100, 999, 100'000, static_cast<std::uint64_t>(i + 2), 0);
  EXPECT_EQ(h.Feed(100, 999, 100'000, 50, 0), 0);
}

TEST(LfaDetectorTest, IsolatedLowRateFlowIsNotSuspicious) {
  DetectorHarness h;
  h.Feed(100, 999, 200, 1);
  h.tn.net->RunUntil(3 * kSecond);
  // Low rate and persistent, but nothing converges on dst 999.
  EXPECT_EQ(h.Feed(100, 999, 200, 2), 0);
}

TEST(LfaDetectorTest, AdoptsUpstreamSuspicionTag) {
  DetectorHarness h;
  sim::Packet pkt;
  pkt.kind = sim::PacketKind::kData;
  pkt.flow = 1;
  pkt.src = 555;
  pkt.dst = 999;
  pkt.size_bytes = 200;
  pkt.SetTag(sim::tag::kSuspicion, 95);  // upstream detector's verdict
  sim::PacketContext ctx{pkt, h.tn.sw(0), kInvalidLink, 0, false, false, kInvalidNode, {}};
  h.detector->Process(ctx);
  EXPECT_TRUE(h.bloom->bloom().MayContain(555));
  EXPECT_EQ(pkt.TagOr(sim::tag::kSuspicion, 0), 95u);  // tag preserved
}

TEST(LfaDetectorTest, RetransmitSignalsTracked) {
  DetectorHarness h;
  h.Feed(100, 999, 200, 5);
  h.Feed(100, 999, 200, 6);
  h.Feed(100, 999, 200, 5);  // repeated seq = retransmission signal
  const auto* fs = h.detector->flows().Peek(sim::FlowKey([&] {
    sim::Packet p;
    p.kind = sim::PacketKind::kData;
    p.src = 100;
    p.dst = 999;
    p.src_port = 1000;
    p.dst_port = 80;
    return p;
  }()));
  ASSERT_NE(fs, nullptr);
  EXPECT_EQ(fs->retransmit_signals, 1u);
  EXPECT_EQ(fs->packets, 3u);
}

// The periodic register sweep counts exactly the persistent low-rate flows:
// not the young (age < min_flow_age), the idle (> 1 s since the last
// packet) or the high-rate ones.  The count drives aggregate_suspicious()
// against aggregate_flow_alarm, and a Reset() table counts nothing.
TEST(LfaDetectorTest, SweepCountsExactlyThePersistentLowRateFlows) {
  constexpr int kYoung = 6, kIdle = 5, kHighRate = 4, kPersistentLowRate = 12;
  for (const std::uint64_t alarm : {std::uint64_t{kPersistentLowRate},
                                    std::uint64_t{kPersistentLowRate + 1}}) {
    LfaConfig config;
    config.aggregate_flow_alarm = alarm;
    DetectorHarness h(config);
    h.detector->StartTimers();  // a sweep every check_period (100 ms)
    auto feed = [&](int first_src, int n, std::uint32_t size) {
      for (int f = 0; f < n; ++f) h.Feed(static_cast<Address>(first_src + f), 999, size);
    };

    // t = 0: the idle, high-rate and persistent low-rate flows start.
    feed(100, kIdle, 200);
    feed(200, kHighRate, 200);
    feed(300, kPersistentLowRate, 200);
    // t = 1.5 s: the young flows start.
    h.tn.net->RunUntil(1500 * kMillisecond);
    feed(400, kYoung, 200);
    // t = 2.05 s: every flow but the idle ones sends again; the high-rate
    // flows push 2 MB (about 8 Mbps over their life, over low_rate_bps).
    h.tn.net->RunUntil(2050 * kMillisecond);
    for (int i = 0; i < 20; ++i) feed(200, kHighRate, 100'000);
    feed(300, kPersistentLowRate, 200);
    feed(400, kYoung, 200);
    ASSERT_EQ(h.detector->flows().installs(),
              static_cast<std::uint64_t>(kYoung + kIdle + kHighRate + kPersistentLowRate))
        << "a flow went untracked, so the hand count does not hold";

    // The sweep at 2.1 s: the young are 0.6 s old, the idle 2.1 s quiet.
    h.tn.net->RunUntil(2150 * kMillisecond);
    EXPECT_EQ(h.detector->persistent_low_rate_flows(),
              static_cast<std::uint64_t>(kPersistentLowRate));
    EXPECT_EQ(h.detector->aggregate_suspicious(), kPersistentLowRate >= alarm)
        << "aggregate_flow_alarm " << alarm;

    h.detector->Reset();
    int visits = 0;
    h.detector->flows().ForEach([&](const dataplane::FlowState&) { ++visits; });
    EXPECT_EQ(visits, 0);
    h.tn.net->RunUntil(2250 * kMillisecond);
    EXPECT_EQ(h.detector->persistent_low_rate_flows(), 0u);
    EXPECT_FALSE(h.detector->aggregate_suspicious());
  }
}

TEST(PacketDropperTest, DropsOnlyAboveThresholdProbabilistically) {
  TestNet tn = MakeLineNet(2);
  PacketDropperPpm dropper(tn.net.get(), 90, 0.8);
  int dropped_high = 0;
  for (int i = 0; i < 1000; ++i) {
    sim::Packet pkt;
    pkt.kind = sim::PacketKind::kData;
    pkt.SetTag(sim::tag::kSuspicion, 95);
    sim::PacketContext ctx{pkt, tn.sw(0), kInvalidLink, 0, false, false, kInvalidNode, {}};
    dropper.Process(ctx);
    dropped_high += ctx.drop;
  }
  EXPECT_NEAR(dropped_high, 800, 60);

  for (int i = 0; i < 100; ++i) {
    sim::Packet pkt;
    pkt.kind = sim::PacketKind::kData;
    pkt.SetTag(sim::tag::kSuspicion, 80);  // below the drop threshold
    sim::PacketContext ctx{pkt, tn.sw(0), kInvalidLink, 0, false, false, kInvalidNode, {}};
    dropper.Process(ctx);
    EXPECT_FALSE(ctx.drop);
  }
}

TEST(PacketDropperTest, EvaluatesEachPacketOnce) {
  TestNet tn = MakeLineNet(2);
  PacketDropperPpm first(tn.net.get(), 90, 1.0);
  PacketDropperPpm second(tn.net.get(), 90, 1.0);
  int dropped_by_second = 0;
  for (int i = 0; i < 100; ++i) {
    sim::Packet pkt;
    pkt.kind = sim::PacketKind::kData;
    pkt.SetTag(sim::tag::kSuspicion, 95);
    // Survived an upstream dropper (simulate by marking evaluated).
    pkt.SetTag(sim::tag::kDropEvaluated, 1);
    sim::PacketContext ctx{pkt, tn.sw(0), kInvalidLink, 0, false, false, kInvalidNode, {}};
    second.Process(ctx);
    dropped_by_second += ctx.drop;
  }
  EXPECT_EQ(dropped_by_second, 0);
  (void)first;
}

struct RerouteHarness {
  TestNet tn;
  std::shared_ptr<const std::unordered_map<Address, NodeId>> host_edge;
  std::vector<std::shared_ptr<CongestionReroutePpm>> ppms;

  explicit RerouteHarness(RerouteConfig config = {}) : tn(MakeLineNet(4)) {
    host_edge = control::BuildHostEdgeMap(*tn.net);
    for (std::size_t i = 0; i < 4; ++i) {
      auto ppm = std::make_shared<CongestionReroutePpm>(tn.net.get(), tn.sw(i), tn.pipe(i),
                                                        host_edge, config);
      tn.pipe(i)->Install(ppm);
      ppm->StartTimers();
      ppms.push_back(ppm);
    }
  }
};

TEST(RerouteTest, NoProbesWhileModeInactive) {
  RerouteHarness h;
  h.tn.net->RunUntil(kSecond);
  for (const auto& ppm : h.ppms) {
    EXPECT_EQ(ppm->probes_originated(), 0u);
    EXPECT_EQ(ppm->probes_seen(), 0u);
  }
}

TEST(RerouteTest, ProbesBuildBestPathTablesWhenActive) {
  RerouteHarness h;
  for (std::size_t i = 0; i < 4; ++i) h.tn.pipe(i)->ActivateMode(dataplane::mode::kLfaReroute);
  h.tn.net->RunUntil(kSecond);
  // Edge switches (0 and 3 have hosts) advertise; switch 1 learns the way
  // to edge switch 3 is via switch 2.
  EXPECT_GT(h.ppms[0]->probes_originated(), 0u);
  EXPECT_EQ(h.ppms[1]->BestNextHop(h.tn.switches[3]), h.tn.switches[2]);
  EXPECT_EQ(h.ppms[2]->BestNextHop(h.tn.switches[0]), h.tn.switches[1]);
}

TEST(RerouteTest, EntriesExpireWithoutRefresh) {
  RerouteConfig config;
  config.entry_ttl = 100 * kMillisecond;
  RerouteHarness h(config);
  for (std::size_t i = 0; i < 4; ++i) h.tn.pipe(i)->ActivateMode(dataplane::mode::kLfaReroute);
  h.tn.net->RunUntil(500 * kMillisecond);
  ASSERT_NE(h.ppms[1]->BestNextHop(h.tn.switches[3]), kInvalidNode);
  // Deactivate: probes stop; entries age out.
  for (std::size_t i = 0; i < 4; ++i) h.tn.pipe(i)->DeactivateMode(dataplane::mode::kLfaReroute);
  h.tn.net->RunUntil(kSecond);
  EXPECT_EQ(h.ppms[1]->BestNextHop(h.tn.switches[3]), kInvalidNode);
}

TEST(RerouteTest, SuspiciousPacketsGetOverrideCleanOnesDoNot) {
  RerouteHarness h;
  for (std::size_t i = 0; i < 4; ++i) h.tn.pipe(i)->ActivateMode(dataplane::mode::kLfaReroute);
  h.tn.net->RunUntil(kSecond);

  const Address dst_addr = h.tn.net->topology().node(h.tn.hosts[1]).address;
  sim::Packet suspicious;
  suspicious.kind = sim::PacketKind::kData;
  suspicious.dst = dst_addr;
  suspicious.SetTag(sim::tag::kSuspicion, 80);
  sim::PacketContext ctx{suspicious, h.tn.sw(1), kInvalidLink, h.tn.net->Now(),
                         false,      false,      kInvalidNode, {}};
  h.ppms[1]->Process(ctx);
  EXPECT_EQ(ctx.next_hop_override, h.tn.switches[2]);
  EXPECT_TRUE(suspicious.HasTag(sim::tag::kRerouted));

  sim::Packet clean;
  clean.kind = sim::PacketKind::kData;
  clean.dst = dst_addr;
  sim::PacketContext ctx2{clean, h.tn.sw(1), kInvalidLink, h.tn.net->Now(),
                          false, false,      kInvalidNode, {}};
  h.ppms[1]->Process(ctx2);
  EXPECT_EQ(ctx2.next_hop_override, kInvalidNode);
}

TEST(RerouteTest, RerouteAllModeSteersEverything) {
  RerouteConfig config;
  config.reroute_all = true;
  RerouteHarness h(config);
  for (std::size_t i = 0; i < 4; ++i) h.tn.pipe(i)->ActivateMode(dataplane::mode::kLfaReroute);
  h.tn.net->RunUntil(kSecond);
  sim::Packet clean;
  clean.kind = sim::PacketKind::kData;
  clean.dst = h.tn.net->topology().node(h.tn.hosts[1]).address;
  sim::PacketContext ctx{clean, h.tn.sw(1), kInvalidLink, h.tn.net->Now(),
                         false, false,      kInvalidNode, {}};
  h.ppms[1]->Process(ctx);
  EXPECT_NE(ctx.next_hop_override, kInvalidNode);
}

TEST(ObfuscatorTest, ReportsCanonicalHopForSuspiciousProbe) {
  TestNet tn = MakeLineNet(4);
  auto host_edge = control::BuildHostEdgeMap(*tn.net);
  auto canonical = control::ComputeCanonicalPaths(*tn.net);
  auto bloom = std::make_shared<SuspiciousSrcBloomPpm>();
  TopologyObfuscatorPpm obf(tn.net.get(), tn.sw(2), bloom, canonical, host_edge,
                            /*obfuscate_all=*/false);

  const Address attacker = tn.net->topology().node(tn.hosts[0]).address;
  const Address dst = tn.net->topology().node(tn.hosts[1]).address;
  bloom->bloom().Insert(attacker);

  sim::Packet probe;
  probe.kind = sim::PacketKind::kTraceroute;
  probe.src = attacker;
  probe.dst = dst;
  probe.seq = (1ULL << 8) | 2;  // ttl = 2: canonical hop 2 is switch 1
  const Address own = tn.net->topology().node(tn.switches[2]).address;
  const Address reported = obf.TracerouteReportAddress(probe, own);
  EXPECT_EQ(reported, tn.net->topology().node(tn.switches[1]).address);
  EXPECT_NE(reported, own);
}

TEST(ObfuscatorTest, CleanSourcesSeeTruthUnlessObfuscateAll) {
  TestNet tn = MakeLineNet(3);
  auto host_edge = control::BuildHostEdgeMap(*tn.net);
  auto canonical = control::ComputeCanonicalPaths(*tn.net);
  auto bloom = std::make_shared<SuspiciousSrcBloomPpm>();
  const Address src = tn.net->topology().node(tn.hosts[0]).address;
  const Address dst = tn.net->topology().node(tn.hosts[1]).address;
  const Address own = tn.net->topology().node(tn.switches[1]).address;

  sim::Packet probe;
  probe.kind = sim::PacketKind::kTraceroute;
  probe.src = src;
  probe.dst = dst;
  probe.seq = (1ULL << 8) | 2;

  TopologyObfuscatorPpm selective(tn.net.get(), tn.sw(1), bloom, canonical, host_edge,
                                  /*obfuscate_all=*/false);
  EXPECT_EQ(selective.TracerouteReportAddress(probe, own), own);
  EXPECT_EQ(selective.obfuscated_replies(), 0u);

  TopologyObfuscatorPpm blanket(tn.net.get(), tn.sw(1), bloom, canonical, host_edge,
                                /*obfuscate_all=*/true);
  // obfuscate_all reports the canonical hop — which on the default path is
  // the true hop, so diagnostics are unharmed.
  EXPECT_EQ(blanket.TracerouteReportAddress(probe, own), own);
  EXPECT_EQ(blanket.obfuscated_replies(), 1u);
}

TEST(ObfuscatorTest, TtlBeyondCanonicalLengthReportsDestination) {
  TestNet tn = MakeLineNet(3);
  auto host_edge = control::BuildHostEdgeMap(*tn.net);
  auto canonical = control::ComputeCanonicalPaths(*tn.net);
  auto bloom = std::make_shared<SuspiciousSrcBloomPpm>();
  const Address src = tn.net->topology().node(tn.hosts[0]).address;
  const Address dst = tn.net->topology().node(tn.hosts[1]).address;
  bloom->bloom().Insert(src);
  TopologyObfuscatorPpm obf(tn.net.get(), tn.sw(1), bloom, canonical, host_edge, false);

  sim::Packet probe;
  probe.kind = sim::PacketKind::kTraceroute;
  probe.src = src;
  probe.dst = dst;
  probe.seq = (1ULL << 8) | 60;  // far beyond the 4-hop canonical path
  EXPECT_EQ(obf.TracerouteReportAddress(probe, 0x1234), dst);
}

}  // namespace
}  // namespace fastflex::boosters
