// Topology: the static graph of nodes and simplex links, plus the path
// algorithms (Dijkstra, Yen's k-shortest paths) that both the centralized TE
// solver and the placement scheduler run on.
//
// Every duplex cable is modeled as two simplex links so that congestion in
// one direction never affects the other, matching real switch ports.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/types.h"

namespace fastflex::sim {

enum class NodeKind : std::uint8_t { kSwitch, kHost };

struct NodeInfo {
  NodeId id = kInvalidNode;
  NodeKind kind = NodeKind::kSwitch;
  std::string name;
  Address address = 0;  // host address, or switch router-address
};

struct LinkInfo {
  LinkId id = kInvalidLink;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  double rate_bps = 1e9;
  SimTime prop_delay = 10 * kMicrosecond;
  std::uint32_t queue_bytes = 150'000;  // drop-tail queue capacity
  LinkId reverse = kInvalidLink;        // the paired simplex link
};

/// A path is a sequence of node ids, first = source, last = destination.
using Path = std::vector<NodeId>;

class Topology {
 public:
  /// Adds a node; names must be unique (checked in debug builds only).
  /// The id must fit the address plan: switch router addresses are
  /// 192.168.0.0/16 and host addresses the odd half of 10.0.0.0/8, so
  /// switch ids stay below 2^16 and host ids below 2^23 (asserted).
  NodeId AddNode(NodeKind kind, std::string name);

  /// Adds a duplex connection as two simplex links; returns the forward
  /// (a -> b) link id.  The reverse id is `ForwardLink + 1` by construction
  /// and recorded in LinkInfo::reverse.
  LinkId AddDuplexLink(NodeId a, NodeId b, double rate_bps, SimTime prop_delay,
                       std::uint32_t queue_bytes);

  std::size_t NumNodes() const { return nodes_.size(); }
  std::size_t NumLinks() const { return links_.size(); }

  const NodeInfo& node(NodeId id) const { return nodes_[static_cast<std::size_t>(id)]; }
  NodeInfo& node(NodeId id) { return nodes_[static_cast<std::size_t>(id)]; }
  const LinkInfo& link(LinkId id) const { return links_[static_cast<std::size_t>(id)]; }
  LinkInfo& link(LinkId id) { return links_[static_cast<std::size_t>(id)]; }

  const std::vector<NodeInfo>& nodes() const { return nodes_; }
  const std::vector<LinkInfo>& links() const { return links_; }

  /// Outgoing simplex links of a node.
  const std::vector<LinkId>& OutLinks(NodeId n) const {
    return out_links_[static_cast<std::size_t>(n)];
  }

  /// The simplex link from `a` to `b`, if adjacent.
  std::optional<LinkId> LinkBetween(NodeId a, NodeId b) const;

  /// Looks a node up by name; returns kInvalidNode if absent.
  NodeId FindByName(const std::string& name) const;

  /// The node whose address is `a`, or kInvalidNode when no node has it:
  /// the inverse of the address plan, checked against the node table.
  /// Every forwarding decision makes this lookup, so it is inline.
  NodeId NodeByAddress(Address a) const {
    std::uint32_t id = 0;
    if ((a & 0xff000000u) == kHostNet) {
      id = (a & 0x00ffffffu) >> 1;
    } else if ((a & 0xffff0000u) == kSwitchNet) {
      id = a & 0x0000ffffu;
    } else {
      return kInvalidNode;
    }
    // The address must be the node's own: this rejects even 10/8
    // addresses, ids past the last node, and a 192.168 address whose id is
    // a host's.
    if (id >= nodes_.size() || nodes_[id].address != a) return kInvalidNode;
    return static_cast<NodeId>(id);
  }

  /// Shortest path by hop count (uniform weights), or empty if unreachable.
  /// `cost` overrides per-link weights when provided (size == NumLinks()).
  /// Links with infinite cost are treated as removed.
  Path ShortestPath(NodeId src, NodeId dst, const std::vector<double>* cost = nullptr) const;

  /// Dijkstra from `src` by ShortestPath's rules: each node's predecessor
  /// on its shortest path from `src`, kInvalidNode for `src` and for nodes
  /// it cannot reach.  With `stop` set the search ends once `stop` is
  /// settled, and only the entries of nodes settled by then are final.
  /// Edges relax only on a strict improvement and nodes settle in
  /// (distance, id) order, so a node's entry does not depend on where the
  /// search stops: ShortestPath(src, dst) is this search stopped at `dst`,
  /// and one full search gives every destination the path ShortestPath
  /// would.
  std::vector<NodeId> ShortestPathTree(NodeId src, const std::vector<double>* cost = nullptr,
                                       NodeId stop = kInvalidNode) const;

  /// Yen's algorithm: up to k loop-free shortest paths, ascending cost.
  std::vector<Path> KShortestPaths(NodeId src, NodeId dst, std::size_t k,
                                   const std::vector<double>* cost = nullptr) const;

  /// The links along a node path (path[i] -> path[i+1]); empty if any pair
  /// is not adjacent.
  std::vector<LinkId> PathLinks(const Path& path) const;

 private:
  // The address plan: hosts get odd addresses in 10.0.0.0/8 (the id
  // shifted left past the low bit), switches router-addresses in
  // 192.168.0.0/16 (the id in the low 16 bits).  An id past its kind's
  // limit would alias another node's address.
  static constexpr Address kHostNet = 10u << 24;
  static constexpr Address kSwitchNet = (192u << 24) | (168u << 16);
  static constexpr std::uint32_t kHostIdLimit = 1u << 23;
  static constexpr std::uint32_t kSwitchIdLimit = 1u << 16;

  static Address MakeAddress(NodeKind kind, NodeId id);

  std::vector<NodeInfo> nodes_;
  std::vector<LinkInfo> links_;
  std::vector<std::vector<LinkId>> out_links_;
};

}  // namespace fastflex::sim
