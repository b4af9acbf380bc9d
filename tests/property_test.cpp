// Property-based tests over randomized inputs: path-algorithm and TE
// invariants on random connected graphs, mode-protocol convergence on
// random topologies, and transport sanity across a parameter grid.
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "control/routes.h"
#include "runtime/mode_protocol.h"
#include "scheduler/te.h"
#include "sim/network.h"
#include "sim/switch_node.h"
#include "util/rng.h"

namespace fastflex {
namespace {

/// Random connected graph: a spanning tree plus extra random edges, plus
/// `hosts` hosts on random switches.
sim::Topology RandomTopology(std::uint64_t seed, int switches, int extra_edges, int hosts) {
  Rng rng(seed);
  sim::Topology t;
  std::vector<NodeId> sw;
  for (int i = 0; i < switches; ++i) {
    sw.push_back(t.AddNode(sim::NodeKind::kSwitch, "s" + std::to_string(i)));
  }
  for (int i = 1; i < switches; ++i) {
    const auto parent = static_cast<std::size_t>(rng.UniformInt(0, i - 1));
    t.AddDuplexLink(sw[parent], sw[static_cast<std::size_t>(i)],
                    10e6 * static_cast<double>(rng.UniformInt(1, 10)),
                    kMillisecond * rng.UniformInt(1, 5), 150'000);
  }
  for (int e = 0; e < extra_edges; ++e) {
    const auto a = static_cast<std::size_t>(rng.UniformInt(0, switches - 1));
    const auto b = static_cast<std::size_t>(rng.UniformInt(0, switches - 1));
    if (a == b || t.LinkBetween(sw[a], sw[b])) continue;
    t.AddDuplexLink(sw[a], sw[b], 10e6 * static_cast<double>(rng.UniformInt(1, 10)),
                    kMillisecond * rng.UniformInt(1, 5), 150'000);
  }
  for (int h = 0; h < hosts; ++h) {
    const NodeId host = t.AddNode(sim::NodeKind::kHost, "h" + std::to_string(h));
    t.AddDuplexLink(sw[static_cast<std::size_t>(rng.UniformInt(0, switches - 1))], host,
                    100e6, kMillisecond, 150'000);
  }
  return t;
}

bool IsValidPath(const sim::Topology& t, const sim::Path& p, NodeId src, NodeId dst) {
  if (p.empty()) return false;
  if (p.front() != src || p.back() != dst) return false;
  std::set<NodeId> seen;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (!seen.insert(p[i]).second) return false;  // loop
    if (i + 1 < p.size() && !t.LinkBetween(p[i], p[i + 1])) return false;
    // Hosts only at the endpoints.
    if (i != 0 && i + 1 != p.size() && t.node(p[i]).kind == sim::NodeKind::kHost)
      return false;
  }
  return true;
}

class RandomGraphTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphTest, ShortestPathsAreValidAndMinimal) {
  const auto t = RandomTopology(GetParam(), 12, 8, 4);
  for (const auto& a : t.nodes()) {
    for (const auto& b : t.nodes()) {
      if (a.id == b.id) continue;
      const sim::Path p = t.ShortestPath(a.id, b.id);
      if (p.empty()) continue;  // host-transit-only connectivity is allowed to fail
      ASSERT_TRUE(IsValidPath(t, p, a.id, b.id))
          << "seed " << GetParam() << " " << a.name << "->" << b.name;
    }
  }
}

TEST_P(RandomGraphTest, KShortestAreSortedValidAndDistinct) {
  const auto t = RandomTopology(GetParam(), 10, 10, 2);
  const auto& nodes = t.nodes();
  const NodeId src = nodes[static_cast<std::size_t>(t.NumNodes()) - 2].id;  // a host
  const NodeId dst = nodes[static_cast<std::size_t>(t.NumNodes()) - 1].id;  // a host
  const auto paths = t.KShortestPaths(src, dst, 6);
  std::set<sim::Path> distinct;
  std::size_t prev_len = 0;
  for (const auto& p : paths) {
    ASSERT_TRUE(IsValidPath(t, p, src, dst));
    EXPECT_TRUE(distinct.insert(p).second) << "duplicate path";
    EXPECT_GE(p.size(), prev_len);  // non-decreasing cost (uniform weights)
    prev_len = p.size();
  }
}

TEST_P(RandomGraphTest, TeSolutionRespectsInvariants) {
  const auto t = RandomTopology(GetParam(), 12, 8, 6);
  Rng rng(GetParam() ^ 0xfeed);
  std::vector<scheduler::Demand> demands;
  std::vector<NodeId> hosts;
  for (const auto& n : t.nodes()) {
    if (n.kind == sim::NodeKind::kHost) hosts.push_back(n.id);
  }
  for (int i = 0; i < 10; ++i) {
    const NodeId a = hosts[static_cast<std::size_t>(rng.UniformInt(0, 5))];
    NodeId b = hosts[static_cast<std::size_t>(rng.UniformInt(0, 5))];
    if (a == b) continue;
    demands.push_back({a, b, 1e6 * static_cast<double>(rng.UniformInt(1, 5)), i});
  }
  const auto sol = scheduler::SolveTe(t, demands);

  // (1) Paths valid; (2) link loads equal the sum of routed demands;
  // (3) max utilization consistent with the loads.
  std::vector<double> expected_load(t.NumLinks(), 0.0);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (sol.paths[i].empty()) continue;
    ASSERT_TRUE(IsValidPath(t, sol.paths[i], demands[i].src_host, demands[i].dst_host));
    for (LinkId l : t.PathLinks(sol.paths[i])) {
      expected_load[static_cast<std::size_t>(l)] += demands[i].rate_bps;
    }
  }
  double max_util = 0.0;
  for (std::size_t l = 0; l < t.NumLinks(); ++l) {
    EXPECT_NEAR(sol.link_load_bps[l], expected_load[l], 1.0);
    max_util = std::max(max_util, expected_load[l] / t.link(static_cast<LinkId>(l)).rate_bps);
  }
  EXPECT_NEAR(sol.max_utilization, max_util, 1e-9);
}

TEST_P(RandomGraphTest, ModeFloodConvergesOnRandomGraphs) {
  auto topo = RandomTopology(GetParam(), 14, 10, 2);
  sim::Network net(topo, GetParam());
  control::InstallDstRoutes(net);
  std::vector<std::unique_ptr<dataplane::Pipeline>> pipelines;
  std::vector<std::shared_ptr<runtime::ModeProtocolPpm>> agents;
  for (const auto& n : net.topology().nodes()) {
    if (n.kind != sim::NodeKind::kSwitch) continue;
    auto pipe = std::make_unique<dataplane::Pipeline>(dataplane::DefaultSwitchCapacity());
    auto agent = std::make_shared<runtime::ModeProtocolPpm>(&net, net.switch_at(n.id),
                                                            pipe.get());
    pipe->Install(agent);
    net.switch_at(n.id)->SetProcessor(pipe.get());
    pipelines.push_back(std::move(pipe));
    agents.push_back(std::move(agent));
  }
  agents.front()->RaiseAlarm(dataplane::attack::kLinkFlooding,
                             dataplane::mode::kLfaReroute, true);
  net.RunUntil(kSecond);  // plenty for any 14-switch graph
  for (const auto& p : pipelines) {
    EXPECT_TRUE(p->ModeActive(dataplane::mode::kLfaReroute)) << "seed " << GetParam();
  }
}

TEST_P(RandomGraphTest, DstRoutingDeliversBetweenAllHostPairs) {
  auto topo = RandomTopology(GetParam(), 10, 6, 4);
  sim::Network net(topo, GetParam());
  control::InstallDstRoutes(net);
  std::vector<NodeId> hosts;
  for (const auto& n : net.topology().nodes()) {
    if (n.kind == sim::NodeKind::kHost) hosts.push_back(n.id);
  }
  std::vector<FlowId> flows;
  for (std::size_t a = 0; a < hosts.size(); ++a) {
    for (std::size_t b = 0; b < hosts.size(); ++b) {
      if (a == b) continue;
      sim::UdpParams udp;
      udp.rate_bps = 100e3;
      udp.packet_bytes = 200;
      flows.push_back(net.StartUdpFlow(hosts[a], hosts[b], udp, 0));
    }
  }
  net.RunUntil(2 * kSecond);
  for (FlowId f : flows) {
    EXPECT_GT(net.flow_stats(f).delivered_bytes, 10'000u) << "seed " << GetParam();
  }
}

TEST_P(RandomGraphTest, DstRoutesEqualThePerPairSearch) {
  // Every host gets a second uplink, so a search that let hosts carry
  // transit would find paths through them.
  auto topo = RandomTopology(GetParam(), 12, 8, 6);
  Rng rng(GetParam() ^ 0xd1a1);
  for (std::size_t i = 0; i < topo.NumNodes(); ++i) {
    const auto h = static_cast<NodeId>(i);
    if (topo.node(h).kind != sim::NodeKind::kHost) continue;
    const NodeId home = topo.link(topo.OutLinks(h).front()).to;
    const auto other = static_cast<NodeId>((home + rng.UniformInt(1, 11)) % 12);
    topo.AddDuplexLink(other, h, 100e6, kMillisecond, 150'000);
  }
  sim::Network net(topo, GetParam());
  control::InstallDstRoutes(net);

  // The per-pair reference: the primary is the shortest path's first hop,
  // the backup that of the shortest path without the primary's link.
  const sim::Topology& t = net.topology();
  std::vector<double> cost(t.NumLinks(), 1.0);
  for (const auto& sw : t.nodes()) {
    if (sw.kind != sim::NodeKind::kSwitch) continue;
    for (const auto& dst : t.nodes()) {
      if (dst.id == sw.id) continue;
      std::vector<NodeId> want;
      const sim::Path p = t.ShortestPath(sw.id, dst.id);
      if (p.size() >= 2) {
        want.push_back(p[1]);
        const auto l = static_cast<std::size_t>(*t.LinkBetween(sw.id, p[1]));
        cost[l] = std::numeric_limits<double>::infinity();
        const sim::Path q = t.ShortestPath(sw.id, dst.id, &cost);
        cost[l] = 1.0;
        if (q.size() >= 2 && q[1] != p[1]) want.push_back(q[1]);
      }
      const auto got = net.switch_at(sw.id)->DstCandidates(dst.address);
      EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()), want)
          << "seed " << GetParam() << " " << sw.name << "->" << dst.name;
      for (NodeId c : got) {
        EXPECT_TRUE(c == dst.id || t.node(c).kind == sim::NodeKind::kSwitch)
            << "seed " << GetParam() << " " << sw.name << "->" << dst.name
            << " transits host " << t.node(c).name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

/// Transport sanity grid: capacity x RTT x queue depth.
class TcpGridTest
    : public ::testing::TestWithParam<std::tuple<double, SimTime, std::uint32_t>> {};

TEST_P(TcpGridTest, SingleFlowUtilizationInBand) {
  const auto [rate, delay, queue] = GetParam();
  sim::Topology t;
  const NodeId s1 = t.AddNode(sim::NodeKind::kSwitch, "s1");
  const NodeId s2 = t.AddNode(sim::NodeKind::kSwitch, "s2");
  const NodeId h1 = t.AddNode(sim::NodeKind::kHost, "h1");
  const NodeId h2 = t.AddNode(sim::NodeKind::kHost, "h2");
  t.AddDuplexLink(s1, s2, rate, delay, queue);
  t.AddDuplexLink(s1, h1, 1e9, kMillisecond, 1'000'000);
  t.AddDuplexLink(s2, h2, 1e9, kMillisecond, 1'000'000);
  sim::Network net(t, 5);
  control::InstallDstRoutes(net);
  const FlowId f = net.StartTcpFlow(h1, h2, sim::TcpParams{}, kSecond / 2);
  net.RunUntil(20 * kSecond);
  // Average over the second half of the run.
  const auto& series = net.flow_stats(f).goodput;
  double bytes = 0;
  for (std::size_t b = 100; b < 200; ++b) bytes += series.BinTotal(b);
  const double utilization = bytes * 8.0 / 10.0 / rate;
  // Reno-style AIMD fills a pipe at +1 MSS/RTT: with a buffer much smaller
  // than the BDP the ramp to full window takes longer than this test runs
  // (e.g. 80 Mbps x 100 ms needs ~80 s), so the floor is BDP-aware.
  const double bdp_bytes = rate / 8.0 * ToSeconds(2 * delay + 4 * kMillisecond);
  const double floor = static_cast<double>(queue) >= bdp_bytes / 2.0 ? 0.40 : 0.12;
  EXPECT_GT(utilization, floor) << "rate=" << rate << " delay=" << delay << " q=" << queue;
  EXPECT_LT(utilization, 1.02);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TcpGridTest,
    ::testing::Combine(::testing::Values(5e6, 20e6, 80e6),
                       ::testing::Values(5 * kMillisecond, 20 * kMillisecond,
                                         50 * kMillisecond),
                       ::testing::Values(50'000u, 150'000u)));

}  // namespace
}  // namespace fastflex
