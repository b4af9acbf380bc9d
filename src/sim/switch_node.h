// SwitchNode: a forwarding element with an installable packet processor
// (the programmable pipeline) and routing state managed by the control
// plane.
//
// Forwarding precedence per packet:
//   1. the pipeline may drop / consume / override the next hop;
//   2. an exact per-flow route (installed by centralized TE);
//   3. a per-destination route, with backup next hops for fast reroute
//      (used while a neighbor is being repurposed, Section 3.4).
//
// The tables are dense arrays indexed by node id (a packet's destination
// address resolves to its node through Topology::NodeByAddress) and by flow
// id, and a neighbor-to-link array replaces scans of the out-links, so a
// forwarding decision is a few array reads.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/node.h"
#include "sim/processor.h"

namespace fastflex::sim {

class SwitchNode : public Node {
 public:
  /// A destination keeps a primary and a backup next hop (Section 3.4).
  static constexpr std::size_t kMaxDstCandidates = 2;

  /// Where a packet leaves: the next hop and the link to it (kInvalidLink
  /// when the next hop is not adjacent).
  struct Egress {
    NodeId next_hop = kInvalidNode;
    LinkId link = kInvalidLink;
  };

  SwitchNode(Network* net, NodeId id);

  void Receive(Packet&& pkt, LinkId in_link) override;

  // ---- Control plane interface ----

  /// Installs/overwrites the next hop for one flow (TE pinning).  Flow ids
  /// index a dense array, so they must be the network's (small, counted
  /// from 1).
  void SetFlowRoute(FlowId flow, NodeId next_hop);

  /// Installs the candidate next hops toward a node's address, primary
  /// first, at most kMaxDstCandidates of them; fast reroute walks the list
  /// skipping avoided neighbors.
  void SetDstRoute(Address dst, const std::vector<NodeId>& next_hops);

  /// Installs the packet processor (pipeline). Non-owning: the orchestrator
  /// owns pipelines so it can migrate and repurpose them.
  void SetProcessor(PacketProcessor* p) { processor_ = p; }
  PacketProcessor* processor() const { return processor_; }

  /// While offline (being reprogrammed) the switch drops everything it
  /// receives — this models reconfiguration downtime on Tofino-class
  /// hardware.
  void SetOffline(bool offline) { offline_ = offline; }
  bool offline() const { return offline_; }

  /// Marks a neighbor to be avoided by fast reroute (it announced an
  /// imminent reconfiguration), or clears the mark.  A mark is set or
  /// clear, not counted: marking twice and clearing once leaves it clear.
  void SetAvoidNeighbor(NodeId neighbor, bool avoid);

  /// Region label used to scope mode changes (co-existing modes in
  /// different parts of the network).
  void set_region(std::uint32_t r) { region_ = r; }
  std::uint32_t region() const { return region_; }

  // ---- Data plane helpers (used by PPMs via PacketContext::sw) ----

  /// Sends a packet to an adjacent node; drops (and counts) if not adjacent.
  void SendTo(NodeId next_hop, Packet&& pkt);

  /// Sends a copy of `pkt` to every neighboring *switch* except the one the
  /// packet arrived from.  This is the probe-flood primitive behind the
  /// mode-change protocol.
  void FloodToSwitchNeighbors(const Packet& pkt, LinkId except_in_link);

  /// Routes a locally originated packet by its destination address.
  void SendRouted(Packet&& pkt);

  /// The forwarding decision for a packet under current tables, or
  /// kInvalidNode. Exposed so routing PPMs can consult the default path.
  NodeId NextHopFor(const Packet& pkt) const;

  /// The egress of the packet a pipeline walk is processing: the override
  /// when a PPM has set one, else the tables' decision, which is made on
  /// the first read and kept in `ctx`, so a packet is looked up once per
  /// hop however many readers it has (Receive, fast failover, INT).
  ///
  /// The rule this relies on: a PPM that rewrites the packet's `dst`,
  /// `flow` or `kind` must run before the first PPM that reads the egress.
  /// Today the SYN proxy (phases 55-56) rewrites an ACK into a SYN before
  /// fast failover (70) and INT (80) read it.  Receive asserts the rule in
  /// debug builds.
  Egress EgressFor(PacketContext& ctx) const {
    if (ctx.next_hop_override != kInvalidNode) {
      return {ctx.next_hop_override, LinkTo(ctx.next_hop_override)};
    }
    if (!ctx.table_decided) {
      ctx.table_decided = true;
      ctx.table_next_hop = NextHopFor(ctx.pkt);
      ctx.table_link = LinkTo(ctx.table_next_hop);
    }
    return {ctx.table_next_hop, ctx.table_link};
  }

  /// The simplex link to `neighbor`, or kInvalidLink if it is not adjacent.
  LinkId LinkTo(NodeId neighbor) const {
    const auto i = static_cast<std::size_t>(neighbor);
    return i < link_to_.size() ? link_to_[i] : kInvalidLink;
  }

  /// The installed candidate next hops toward `dst` (primary first); empty
  /// when no destination route exists.  A fast-failover PPM walks this list
  /// to find a live backup when the primary egress is dead.
  std::span<const NodeId> DstCandidates(Address dst) const;

  /// Whether fast reroute currently avoids `neighbor`.
  bool Avoids(NodeId neighbor) const {
    const auto i = static_cast<std::size_t>(neighbor);
    return num_avoided_ != 0 && i < avoid_.size() && avoid_[i] != 0;
  }

  /// Neighboring switches (excludes hosts).
  const std::vector<NodeId>& switch_neighbors() const { return switch_neighbors_; }

  // ---- Telemetry ----
  void CollectTelemetry(telemetry::Recorder& recorder) const override;

  // ---- Counters ----
  std::uint64_t rx_packets() const { return rx_packets_; }
  std::uint64_t forwarded_packets() const { return forwarded_; }
  std::uint64_t no_route_drops() const { return no_route_drops_; }
  std::uint64_t policy_drops() const { return policy_drops_; }
  std::uint64_t offline_drops() const { return offline_drops_; }

 private:
  /// A destination's candidates, primary first; unused slots hold
  /// kInvalidNode.
  struct DstRoute {
    std::array<NodeId, kMaxDstCandidates> hops{kInvalidNode, kInvalidNode};
    std::uint32_t size = 0;
  };

  void Forward(Packet&& pkt, NodeId next_hop);
  void HandleTracerouteExpiry(const Packet& probe);

  PacketProcessor* processor_ = nullptr;
  // Indexed by node id: destination routes, the link to each neighbor, and
  // the avoid marks (with the number set, so an unmarked switch skips them).
  std::vector<DstRoute> dst_routes_;
  std::vector<LinkId> link_to_;
  std::vector<std::uint8_t> avoid_;
  std::uint32_t num_avoided_ = 0;
  // Indexed by flow id; kInvalidNode where no flow route is installed.
  std::vector<NodeId> flow_routes_;
  std::vector<NodeId> switch_neighbors_;
  bool offline_ = false;
  std::uint32_t region_ = 0;

  std::uint64_t rx_packets_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t no_route_drops_ = 0;
  std::uint64_t policy_drops_ = 0;
  std::uint64_t offline_drops_ = 0;
};

}  // namespace fastflex::sim
