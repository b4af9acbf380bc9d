#include "control/routes.h"

#include <limits>

#include "sim/switch_node.h"

namespace fastflex::control {
namespace {

/// The first hop of `src`'s shortest path to every node (kInvalidNode for
/// `src` and the unreachable), from one search; `cost` as in ShortestPath.
std::vector<NodeId> FirstHops(const sim::Topology& topo, NodeId src,
                              const std::vector<double>* cost) {
  const std::vector<NodeId> prev = topo.ShortestPathTree(src, cost);
  std::vector<NodeId> first(prev.size(), kInvalidNode);
  for (std::size_t v = 0; v < prev.size(); ++v) {
    auto at = static_cast<NodeId>(v);
    while (prev[static_cast<std::size_t>(at)] != kInvalidNode &&
           prev[static_cast<std::size_t>(at)] != src) {
      at = prev[static_cast<std::size_t>(at)];
    }
    if (prev[static_cast<std::size_t>(at)] == src) first[v] = at;
  }
  return first;
}

}  // namespace

void InstallDstRoutes(sim::Network& net) {
  // Each (switch, destination) pair gets the first hop of the per-pair
  // search and the first hop of that search with the primary's link
  // removed.  A search's result for one destination does not depend on
  // where it stops (see Topology::ShortestPathTree), so one full search per
  // switch gives every primary, and one per distinct primary link every
  // backup: 2 x switches x nodes searches become switches x (1 + primary
  // neighbors).
  const sim::Topology& topo = net.topology();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> cost(topo.NumLinks(), 1.0);
  std::vector<NodeId> hops;
  for (const auto& sw_info : topo.nodes()) {
    if (sw_info.kind != sim::NodeKind::kSwitch) continue;
    sim::SwitchNode* sw = net.switch_at(sw_info.id);
    const std::vector<NodeId> primary = FirstHops(topo, sw_info.id, nullptr);
    std::vector<NodeId> backup(primary.size(), kInvalidNode);
    std::vector<bool> searched(primary.size(), false);
    for (const NodeId p : primary) {
      if (p == kInvalidNode || searched[static_cast<std::size_t>(p)]) continue;
      searched[static_cast<std::size_t>(p)] = true;
      const auto link = static_cast<std::size_t>(*topo.LinkBetween(sw_info.id, p));
      cost[link] = kInf;
      const std::vector<NodeId> around = FirstHops(topo, sw_info.id, &cost);
      cost[link] = 1.0;
      for (std::size_t d = 0; d < primary.size(); ++d) {
        if (primary[d] == p) backup[d] = around[d];
      }
    }
    for (const auto& dst_info : topo.nodes()) {
      const auto d = static_cast<std::size_t>(dst_info.id);
      if (primary[d] == kInvalidNode) continue;
      hops.assign(1, primary[d]);
      if (backup[d] != kInvalidNode && backup[d] != primary[d]) hops.push_back(backup[d]);
      sw->SetDstRoute(dst_info.address, hops);
    }
  }
}

void InstallFlowRoutes(sim::Network& net, const std::vector<scheduler::Demand>& demands,
                       const std::vector<sim::Path>& paths) {
  for (std::size_t i = 0; i < demands.size() && i < paths.size(); ++i) {
    if (demands[i].flow == kInvalidFlow || paths[i].size() < 2) continue;
    const sim::Path& p = paths[i];
    for (std::size_t h = 0; h + 1 < p.size(); ++h) {
      sim::SwitchNode* sw = net.switch_at(p[h]);
      if (sw != nullptr) sw->SetFlowRoute(demands[i].flow, p[h + 1]);
    }
  }
}

std::shared_ptr<const std::unordered_map<Address, NodeId>> BuildHostEdgeMap(
    const sim::Network& net) {
  auto map = std::make_shared<std::unordered_map<Address, NodeId>>();
  const sim::Topology& topo = net.topology();
  for (const auto& n : topo.nodes()) {
    if (n.kind != sim::NodeKind::kHost) continue;
    const auto& links = topo.OutLinks(n.id);
    if (!links.empty()) (*map)[n.address] = topo.link(links.front()).to;
  }
  return map;
}

std::shared_ptr<const boosters::CanonicalPaths> ComputeCanonicalPaths(sim::Network& net) {
  auto canonical = std::make_shared<boosters::CanonicalPaths>();
  const sim::Topology& topo = net.topology();

  for (const auto& start : topo.nodes()) {
    if (start.kind != sim::NodeKind::kSwitch) continue;
    for (const auto& dst : topo.nodes()) {
      if (dst.kind != sim::NodeKind::kHost || dst.id == start.id) continue;
      // Walk primary dst routes hop by hop; a packet entering at `start`
      // sees `start` as its first reporting hop.
      std::vector<Address> hops{start.address};
      NodeId at = start.id;
      bool ok = false;
      for (int guard = 0; guard < 64; ++guard) {
        sim::SwitchNode* sw = net.switch_at(at);
        if (sw == nullptr) break;
        sim::Packet probe;  // NextHopFor keys on dst only here
        probe.dst = dst.address;
        const NodeId nh = sw->NextHopFor(probe);
        if (nh == kInvalidNode) break;
        if (nh == dst.id) {
          hops.push_back(dst.address);
          ok = true;
          break;
        }
        hops.push_back(topo.node(nh).address);
        at = nh;
      }
      if (ok) (*canonical)[{start.id, dst.address}] = std::move(hops);
    }
  }
  return canonical;
}

}  // namespace fastflex::control
