#include "sim/topology.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <queue>
#include <set>

namespace fastflex::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Address Topology::MakeAddress(NodeKind kind, NodeId id) {
  const auto n = static_cast<std::uint32_t>(id);
  if (kind == NodeKind::kHost) return kHostNet | (n << 1) | 1u;
  return kSwitchNet | n;
}

NodeId Topology::AddNode(NodeKind kind, std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  assert(static_cast<std::uint32_t>(id) <
             (kind == NodeKind::kHost ? kHostIdLimit : kSwitchIdLimit) &&
         "node id past the address plan");
  assert(FindByName(name) == kInvalidNode && "node names must be unique");
  nodes_.push_back(NodeInfo{id, kind, std::move(name), MakeAddress(kind, id)});
  out_links_.emplace_back();
  return id;
}

LinkId Topology::AddDuplexLink(NodeId a, NodeId b, double rate_bps, SimTime prop_delay,
                               std::uint32_t queue_bytes) {
  const LinkId fwd = static_cast<LinkId>(links_.size());
  const LinkId rev = fwd + 1;
  links_.push_back(LinkInfo{fwd, a, b, rate_bps, prop_delay, queue_bytes, rev});
  links_.push_back(LinkInfo{rev, b, a, rate_bps, prop_delay, queue_bytes, fwd});
  out_links_[static_cast<std::size_t>(a)].push_back(fwd);
  out_links_[static_cast<std::size_t>(b)].push_back(rev);
  return fwd;
}

std::optional<LinkId> Topology::LinkBetween(NodeId a, NodeId b) const {
  for (LinkId l : out_links_[static_cast<std::size_t>(a)]) {
    if (links_[static_cast<std::size_t>(l)].to == b) return l;
  }
  return std::nullopt;
}

NodeId Topology::FindByName(const std::string& name) const {
  for (const auto& n : nodes_)
    if (n.name == name) return n.id;
  return kInvalidNode;
}

Path Topology::ShortestPath(NodeId src, NodeId dst, const std::vector<double>* cost) const {
  const std::vector<NodeId> prev = ShortestPathTree(src, cost, dst);
  if (dst != src && prev[static_cast<std::size_t>(dst)] == kInvalidNode) return {};
  Path path;
  for (NodeId at = dst; at != kInvalidNode; at = prev[static_cast<std::size_t>(at)])
    path.push_back(at);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<NodeId> Topology::ShortestPathTree(NodeId src, const std::vector<double>* cost,
                                               NodeId stop) const {
  const std::size_t n = nodes_.size();
  std::vector<double> dist(n, kInf);
  std::vector<NodeId> prev(n, kInvalidNode);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  dist[static_cast<std::size_t>(src)] = 0.0;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    if (u == stop) break;
    for (LinkId l : out_links_[static_cast<std::size_t>(u)]) {
      const auto& li = links_[static_cast<std::size_t>(l)];
      // Transit through hosts is forbidden: a host may only be the first or
      // last node of a path.
      if (u != src && nodes_[static_cast<std::size_t>(u)].kind == NodeKind::kHost) continue;
      const double w = cost ? (*cost)[static_cast<std::size_t>(l)] : 1.0;
      if (!std::isfinite(w)) continue;
      const double nd = d + w;
      if (nd < dist[static_cast<std::size_t>(li.to)]) {
        dist[static_cast<std::size_t>(li.to)] = nd;
        prev[static_cast<std::size_t>(li.to)] = u;
        pq.emplace(nd, li.to);
      }
    }
  }
  return prev;
}

std::vector<Path> Topology::KShortestPaths(NodeId src, NodeId dst, std::size_t k,
                                           const std::vector<double>* cost) const {
  std::vector<Path> result;
  Path first = ShortestPath(src, dst, cost);
  if (first.empty() || k == 0) return result;
  result.push_back(std::move(first));

  auto path_cost = [&](const Path& p) {
    double c = 0.0;
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      auto l = LinkBetween(p[i], p[i + 1]);
      c += cost ? (*cost)[static_cast<std::size_t>(*l)] : 1.0;
    }
    return c;
  };

  // Candidate set ordered by cost then lexicographic path for determinism.
  auto cmp = [&](const std::pair<double, Path>& a, const std::pair<double, Path>& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;
  };
  std::set<std::pair<double, Path>, decltype(cmp)> candidates(cmp);

  std::vector<double> work(links_.size());

  while (result.size() < k) {
    const Path& last = result.back();
    for (std::size_t i = 0; i + 1 < last.size(); ++i) {
      const NodeId spur = last[i];
      Path root(last.begin(), last.begin() + static_cast<std::ptrdiff_t>(i + 1));

      // Copy base costs, then remove edges that would recreate known paths
      // sharing this root, and remove root nodes to keep paths loop-free.
      for (std::size_t l = 0; l < links_.size(); ++l)
        work[l] = cost ? (*cost)[l] : 1.0;
      for (const Path& p : result) {
        if (p.size() > i &&
            std::equal(root.begin(), root.end(), p.begin(), p.begin() + static_cast<std::ptrdiff_t>(i + 1))) {
          if (auto l = LinkBetween(p[i], p[i + 1])) work[static_cast<std::size_t>(*l)] = kInf;
        }
      }
      for (std::size_t j = 0; j < i; ++j) {
        for (LinkId l : out_links_[static_cast<std::size_t>(root[j])]) work[static_cast<std::size_t>(l)] = kInf;
        for (const auto& li : links_)
          if (li.to == root[j]) work[static_cast<std::size_t>(li.id)] = kInf;
      }

      Path spur_path = ShortestPath(spur, dst, &work);
      if (spur_path.empty()) continue;
      Path total = root;
      total.insert(total.end(), spur_path.begin() + 1, spur_path.end());
      candidates.emplace(path_cost(total), std::move(total));
    }
    if (candidates.empty()) break;
    auto it = candidates.begin();
    // Skip candidates already in the result set.
    while (it != candidates.end() &&
           std::find(result.begin(), result.end(), it->second) != result.end()) {
      it = candidates.erase(it);
    }
    if (it == candidates.end()) break;
    result.push_back(it->second);
    candidates.erase(it);
  }
  return result;
}

std::vector<LinkId> Topology::PathLinks(const Path& path) const {
  std::vector<LinkId> out;
  out.reserve(path.size());
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    auto l = LinkBetween(path[i], path[i + 1]);
    if (!l) return {};
    out.push_back(*l);
  }
  return out;
}

}  // namespace fastflex::sim
