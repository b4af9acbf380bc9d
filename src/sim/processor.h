// The boundary between the simulator and the programmable data plane.
//
// A SwitchNode hands every transiting packet to its installed
// PacketProcessor (in this project: dataplane::Pipeline, a chain of packet
// processing modules).  The processor can drop, consume, override the next
// hop, rewrite the packet, or emit new packets (probe floods, replies) —
// exactly the action set a P4 match-action pipeline has.
#pragma once

#include <vector>

#include "sim/packet.h"
#include "util/types.h"

namespace fastflex::sim {

class SwitchNode;

/// A packet the processor asks the switch to inject.  If `next_hop` is
/// kInvalidNode the switch routes it by destination address; otherwise it is
/// sent directly to that neighbor (used by probe floods that address links,
/// not destinations).
struct Emission {
  Packet pkt;
  NodeId next_hop = kInvalidNode;
};

struct PacketContext {
  Packet& pkt;
  SwitchNode* sw;      // the switch executing the pipeline
  LinkId in_link;      // ingress link (kInvalidLink if locally originated)
  SimTime now;

  // --- outputs ---
  bool drop = false;      // discard the packet (counted as a policy drop)
  bool consume = false;   // the pipeline absorbed the packet (e.g. a probe)
  NodeId next_hop_override = kInvalidNode;  // forwarding decision override
  std::vector<Emission> emit;               // packets to inject

  // --- the routing tables' decision for `pkt`, made once per packet ---
  // Filled on first read by SwitchNode::EgressFor; read it only through
  // that accessor, which also applies `next_hop_override`.
  bool table_decided = false;
  NodeId table_next_hop = kInvalidNode;
  LinkId table_link = kInvalidLink;
};

class PacketProcessor {
 public:
  virtual ~PacketProcessor() = default;

  /// Runs the pipeline over one packet.
  virtual void Process(PacketContext& ctx) = 0;

  /// Hook for traceroute TTL-expiry replies: returns the address this switch
  /// reports about itself.  The topology-obfuscation booster overrides the
  /// default (the switch's real router address) for suspicious probes.
  virtual Address TracerouteReportAddress(const Packet& probe, Address own_address) {
    (void)probe;
    return own_address;
  }
};

}  // namespace fastflex::sim
