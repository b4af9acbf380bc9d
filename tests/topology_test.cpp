// Topology and path-algorithm tests (Dijkstra, Yen's k-shortest paths).
#include <gtest/gtest.h>

#include "sim/topology.h"
#include "scenarios/fattree.h"

namespace fastflex::sim {
namespace {

/// Diamond: a - {b, c} - d, plus a long way a - e - f - d.
struct Diamond {
  Topology t;
  NodeId a, b, c, d, e, f;
  Diamond() {
    a = t.AddNode(NodeKind::kSwitch, "a");
    b = t.AddNode(NodeKind::kSwitch, "b");
    c = t.AddNode(NodeKind::kSwitch, "c");
    d = t.AddNode(NodeKind::kSwitch, "d");
    e = t.AddNode(NodeKind::kSwitch, "e");
    f = t.AddNode(NodeKind::kSwitch, "f");
    t.AddDuplexLink(a, b, 1e9, kMillisecond, 100000);
    t.AddDuplexLink(a, c, 1e9, kMillisecond, 100000);
    t.AddDuplexLink(b, d, 1e9, kMillisecond, 100000);
    t.AddDuplexLink(c, d, 1e9, kMillisecond, 100000);
    t.AddDuplexLink(a, e, 1e9, kMillisecond, 100000);
    t.AddDuplexLink(e, f, 1e9, kMillisecond, 100000);
    t.AddDuplexLink(f, d, 1e9, kMillisecond, 100000);
  }
};

TEST(TopologyTest, DuplexLinkCreatesPairedSimplexLinks) {
  Topology t;
  const NodeId a = t.AddNode(NodeKind::kSwitch, "a");
  const NodeId b = t.AddNode(NodeKind::kSwitch, "b");
  const LinkId fwd = t.AddDuplexLink(a, b, 1e9, kMillisecond, 1000);
  const LinkInfo& fl = t.link(fwd);
  const LinkInfo& rl = t.link(fl.reverse);
  EXPECT_EQ(fl.from, a);
  EXPECT_EQ(fl.to, b);
  EXPECT_EQ(rl.from, b);
  EXPECT_EQ(rl.to, a);
  EXPECT_EQ(rl.reverse, fwd);
  EXPECT_EQ(t.NumLinks(), 2u);
}

TEST(TopologyTest, NodeAddressesAreUnique) {
  Topology t;
  const NodeId s = t.AddNode(NodeKind::kSwitch, "s");
  const NodeId h1 = t.AddNode(NodeKind::kHost, "h1");
  const NodeId h2 = t.AddNode(NodeKind::kHost, "h2");
  EXPECT_NE(t.node(h1).address, t.node(h2).address);
  EXPECT_NE(t.node(s).address, t.node(h1).address);

  // NodeByAddress inverts the address plan, and only for addresses a node
  // actually has.
  for (const NodeInfo& n : t.nodes()) EXPECT_EQ(t.NodeByAddress(n.address), n.id);
  EXPECT_EQ(t.NodeByAddress(0), kInvalidNode);
  EXPECT_EQ(t.NodeByAddress(t.node(h1).address + 1), kInvalidNode);  // even 10/8
  const auto past_last = static_cast<Address>(t.NumNodes());
  EXPECT_EQ(t.NodeByAddress((10u << 24) | (past_last << 1) | 1u), kInvalidNode);
  EXPECT_EQ(t.NodeByAddress((192u << 24) | (168u << 16) | static_cast<Address>(h2)),
            kInvalidNode);  // a switch-style address carrying a host's id
}

TEST(TopologyTest, FindByName) {
  Topology t;
  t.AddNode(NodeKind::kSwitch, "alpha");
  const NodeId beta = t.AddNode(NodeKind::kSwitch, "beta");
  EXPECT_EQ(t.FindByName("beta"), beta);
  EXPECT_EQ(t.FindByName("gamma"), kInvalidNode);
}

TEST(TopologyTest, LinkBetweenFindsAdjacency) {
  Diamond d;
  EXPECT_TRUE(d.t.LinkBetween(d.a, d.b).has_value());
  EXPECT_FALSE(d.t.LinkBetween(d.a, d.d).has_value());
}

TEST(ShortestPathTest, PicksMinimumHops) {
  Diamond d;
  const Path p = d.t.ShortestPath(d.a, d.d);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p.front(), d.a);
  EXPECT_EQ(p.back(), d.d);
}

TEST(ShortestPathTest, UnreachableReturnsEmpty) {
  Topology t;
  const NodeId a = t.AddNode(NodeKind::kSwitch, "a");
  const NodeId b = t.AddNode(NodeKind::kSwitch, "b");
  EXPECT_TRUE(t.ShortestPath(a, b).empty());
}

TEST(ShortestPathTest, RespectsCostOverride) {
  Diamond d;
  std::vector<double> cost(d.t.NumLinks(), 1.0);
  // Make both short branches prohibitively expensive.
  cost[static_cast<std::size_t>(*d.t.LinkBetween(d.a, d.b))] = 100.0;
  cost[static_cast<std::size_t>(*d.t.LinkBetween(d.a, d.c))] = 100.0;
  const Path p = d.t.ShortestPath(d.a, d.d, &cost);
  ASSERT_EQ(p.size(), 4u);  // the long way via e, f
  EXPECT_EQ(p[1], d.e);
}

TEST(ShortestPathTest, InfiniteCostRemovesLink) {
  Topology t;
  const NodeId a = t.AddNode(NodeKind::kSwitch, "a");
  const NodeId b = t.AddNode(NodeKind::kSwitch, "b");
  t.AddDuplexLink(a, b, 1e9, kMillisecond, 1000);
  std::vector<double> cost(t.NumLinks(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(t.ShortestPath(a, b, &cost).empty());
}

TEST(ShortestPathTest, HostsDoNotTransit) {
  // a - h - b where h is a host: no path a->b through it.
  Topology t;
  const NodeId a = t.AddNode(NodeKind::kSwitch, "a");
  const NodeId h = t.AddNode(NodeKind::kHost, "h");
  const NodeId b = t.AddNode(NodeKind::kSwitch, "b");
  t.AddDuplexLink(a, h, 1e9, kMillisecond, 1000);
  t.AddDuplexLink(h, b, 1e9, kMillisecond, 1000);
  EXPECT_TRUE(t.ShortestPath(a, b).empty());
  // But a host can be an endpoint.
  EXPECT_EQ(t.ShortestPath(a, h).size(), 2u);
}

TEST(KShortestTest, ReturnsDistinctLoopFreePathsInOrder) {
  Diamond d;
  const auto paths = d.t.KShortestPaths(d.a, d.d, 3);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0].size(), 3u);
  EXPECT_EQ(paths[1].size(), 3u);
  EXPECT_EQ(paths[2].size(), 4u);  // the detour comes last
  EXPECT_NE(paths[0], paths[1]);
  for (const auto& p : paths) {
    std::set<NodeId> uniq(p.begin(), p.end());
    EXPECT_EQ(uniq.size(), p.size()) << "path has a loop";
  }
}

TEST(KShortestTest, StopsWhenExhausted) {
  Diamond d;
  const auto paths = d.t.KShortestPaths(d.a, d.d, 50);
  // The diamond has exactly 3 simple a->d paths.
  EXPECT_EQ(paths.size(), 3u);
}

TEST(KShortestTest, KOneEqualsShortest) {
  Diamond d;
  const auto paths = d.t.KShortestPaths(d.a, d.d, 1);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], d.t.ShortestPath(d.a, d.d));
}

TEST(PathLinksTest, MapsNodePairsToLinks) {
  Diamond d;
  const Path p = d.t.ShortestPath(d.a, d.d);
  const auto links = d.t.PathLinks(p);
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(d.t.link(links[0]).from, d.a);
  EXPECT_EQ(d.t.link(links[1]).to, d.d);
}

TEST(PathLinksTest, NonAdjacentPathYieldsEmpty) {
  Diamond d;
  EXPECT_TRUE(d.t.PathLinks({d.a, d.d}).empty());
}

TEST(FatTreeTest, K4HasExpectedShape) {
  const auto ft = scenarios::BuildFatTree(4);
  EXPECT_EQ(ft.core.size(), 4u);
  EXPECT_EQ(ft.aggregation.size(), 8u);
  EXPECT_EQ(ft.edge.size(), 8u);
  EXPECT_EQ(ft.hosts.size(), 8u);
  // Any host pair in different pods is reachable.
  const Path p = ft.topo.ShortestPath(ft.hosts.front(), ft.hosts.back());
  ASSERT_FALSE(p.empty());
  EXPECT_EQ(p.size(), 7u);  // host-edge-agg-core-agg-edge-host
}

TEST(FatTreeTest, CrossPodPathDiversityMatchesTheory) {
  const auto ft = scenarios::BuildFatTree(4);
  // In a k=4 fat tree there are (k/2)^2 = 4 shortest core paths between
  // hosts in different pods.
  const auto paths = ft.topo.KShortestPaths(ft.hosts.front(), ft.hosts.back(), 8);
  int shortest = 0;
  for (const auto& p : paths) shortest += (p.size() == 7u);
  EXPECT_EQ(shortest, 4);
}

}  // namespace
}  // namespace fastflex::sim
