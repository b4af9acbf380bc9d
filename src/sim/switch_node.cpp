#include "sim/switch_node.h"

#include <cassert>

#include "sim/network.h"
#include "telemetry/telemetry.h"
#include "util/logging.h"

namespace fastflex::sim {

SwitchNode::SwitchNode(Network* net, NodeId id)
    : Node(net, id),
      dst_routes_(net->topology().NumNodes()),
      link_to_(net->topology().NumNodes(), kInvalidLink),
      avoid_(net->topology().NumNodes(), 0) {
  const Topology& topo = net->topology();
  for (LinkId l : topo.OutLinks(id)) {
    const NodeId peer = topo.link(l).to;
    // The first link to a peer wins, as in Topology::LinkBetween.
    LinkId& to_peer = link_to_[static_cast<std::size_t>(peer)];
    if (to_peer == kInvalidLink) to_peer = l;
    if (topo.node(peer).kind == NodeKind::kSwitch) switch_neighbors_.push_back(peer);
  }
}

void SwitchNode::Receive(Packet&& pkt, LinkId in_link) {
  ++rx_packets_;
  if (offline_) {
    ++offline_drops_;
    return;
  }

  // TTL processing (traceroute mapping depends on it; everything else gets a
  // generous initial TTL and never expires in our topologies).
  if (pkt.ttl == 0 || --pkt.ttl == 0) {
    if (pkt.kind == PacketKind::kTraceroute) HandleTracerouteExpiry(pkt);
    return;
  }

  PacketContext ctx{pkt, this, in_link, net_->Now(), false, false, kInvalidNode, {}};
  if (processor_ != nullptr) processor_->Process(ctx);

  // Emissions first: probe floods must go out even if the triggering packet
  // is dropped or consumed.
  for (auto& e : ctx.emit) {
    if (e.next_hop != kInvalidNode) {
      SendTo(e.next_hop, std::move(e.pkt));
    } else {
      SendRouted(std::move(e.pkt));
    }
  }

  if (ctx.drop) {
    ++policy_drops_;
    net_->CountPolicyDrop();
    return;
  }
  if (ctx.consume) return;

  // A PPM that read the egress cached the tables' decision; nothing after
  // it may have changed what the tables would say (see EgressFor).
  assert(!ctx.table_decided || ctx.table_next_hop == NextHopFor(pkt));
  const Egress out = EgressFor(ctx);
  if (out.link == kInvalidLink) {
    ++no_route_drops_;
    return;
  }
  ++forwarded_;
  net_->SendOnLink(out.link, std::move(pkt));
}

void SwitchNode::SetFlowRoute(FlowId flow, NodeId next_hop) {
  assert(flow >= 0 && next_hop != kInvalidNode);
  const auto i = static_cast<std::size_t>(flow);
  if (i >= flow_routes_.size()) flow_routes_.resize(i + 1, kInvalidNode);
  flow_routes_[i] = next_hop;
}

void SwitchNode::SetDstRoute(Address dst, const std::vector<NodeId>& next_hops) {
  const NodeId node = net_->topology().NodeByAddress(dst);
  assert(node != kInvalidNode && next_hops.size() <= kMaxDstCandidates);
  if (node == kInvalidNode) return;
  DstRoute& route = dst_routes_[static_cast<std::size_t>(node)];
  route = DstRoute{};
  for (NodeId nh : next_hops) {
    if (route.size == kMaxDstCandidates) break;
    route.hops[route.size++] = nh;
  }
}

std::span<const NodeId> SwitchNode::DstCandidates(Address dst) const {
  const NodeId node = net_->topology().NodeByAddress(dst);
  if (node == kInvalidNode) return {};
  const DstRoute& route = dst_routes_[static_cast<std::size_t>(node)];
  return {route.hops.data(), route.size};
}

void SwitchNode::SetAvoidNeighbor(NodeId neighbor, bool avoid) {
  // An id that names no node (a forged notice's origin) is never a next
  // hop, so marking it could change no decision.
  const auto i = static_cast<std::size_t>(neighbor);
  if (i >= avoid_.size() || (avoid_[i] != 0) == avoid) return;
  avoid_[i] = avoid ? 1 : 0;
  if (avoid) {
    ++num_avoided_;
  } else {
    --num_avoided_;
  }
}

NodeId SwitchNode::NextHopFor(const Packet& pkt) const {
  // Per-flow TE routes describe the forward direction; ACKs (the reverse
  // 5-tuple) follow destination routes.
  const bool forward = pkt.kind == PacketKind::kData || pkt.kind == PacketKind::kUdp;
  if (forward && pkt.flow >= 0 && static_cast<std::size_t>(pkt.flow) < flow_routes_.size()) {
    const NodeId nh = flow_routes_[static_cast<std::size_t>(pkt.flow)];
    if (nh != kInvalidNode && !Avoids(nh)) return nh;
  }
  const NodeId dst = net_->topology().NodeByAddress(pkt.dst);
  if (dst == kInvalidNode) return kInvalidNode;
  const DstRoute& route = dst_routes_[static_cast<std::size_t>(dst)];
  for (std::uint32_t i = 0; i < route.size; ++i) {
    if (!Avoids(route.hops[i])) return route.hops[i];
  }
  return kInvalidNode;
}

void SwitchNode::Forward(Packet&& pkt, NodeId next_hop) {
  const LinkId l = LinkTo(next_hop);
  if (l == kInvalidLink) {
    ++no_route_drops_;
    return;
  }
  ++forwarded_;
  net_->SendOnLink(l, std::move(pkt));
}

void SwitchNode::SendTo(NodeId next_hop, Packet&& pkt) { Forward(std::move(pkt), next_hop); }

void SwitchNode::SendRouted(Packet&& pkt) {
  const NodeId nh = NextHopFor(pkt);
  if (nh == kInvalidNode) {
    ++no_route_drops_;
    return;
  }
  Forward(std::move(pkt), nh);
}

void SwitchNode::FloodToSwitchNeighbors(const Packet& pkt, LinkId except_in_link) {
  const Topology& topo = net_->topology();
  const NodeId from =
      except_in_link == kInvalidLink ? kInvalidNode : topo.link(except_in_link).from;
  for (NodeId peer : switch_neighbors_) {
    if (peer == from) continue;
    Packet copy = pkt;  // probe payload is shared_ptr: cheap copy
    SendTo(peer, std::move(copy));
  }
}

void SwitchNode::CollectTelemetry(telemetry::Recorder& recorder) const {
  if (rx_packets_ == 0) return;  // idle switch: keep the artifact small
  auto& m = recorder.metrics();
  const std::string p = telemetry::Join("switch", id_);
  m.GetCounter(p + ".rx_packets").Set(rx_packets_);
  m.GetCounter(p + ".forwarded").Set(forwarded_);
  m.GetCounter(p + ".no_route_drops").Set(no_route_drops_);
  m.GetCounter(p + ".policy_drops").Set(policy_drops_);
  m.GetCounter(p + ".offline_drops").Set(offline_drops_);
}

void SwitchNode::HandleTracerouteExpiry(const Packet& probe) {
  Address report = net_->topology().node(id_).address;
  if (processor_ != nullptr) report = processor_->TracerouteReportAddress(probe, report);

  Packet reply;
  reply.kind = PacketKind::kIcmpTtlExceeded;
  reply.src = report;
  reply.dst = probe.src;
  reply.ttl = 64;
  reply.size_bytes = 56;
  reply.reported_address = report;
  reply.probe_id = probe.seq;
  SendRouted(std::move(reply));
}

}  // namespace fastflex::sim
