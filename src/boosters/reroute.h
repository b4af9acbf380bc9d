// Congestion-based rerouting booster — Hula/Contra-style performance-aware
// routing entirely in the data plane (Section 4.1 "Routing around
// congestion").
//
// When the kLfaReroute mode is active, edge switches periodically originate
// utilization probes advertising themselves; probes flood through the
// network accumulating the max link utilization seen along the way.  Every
// switch maintains, per destination edge switch, the neighbor offering the
// least-utilized path.  Suspicious packets are steered onto that best path
// (normal flows stay pinned to their TE-optimal routes — the paper's step 3,
// which ablation A1 quantifies).
#pragma once

#include <unordered_map>

#include "boosters/config.h"
#include "boosters/shared_ppms.h"
#include "dataplane/pipeline.h"
#include "dataplane/ppm.h"
#include "sim/network.h"
#include "sim/switch_node.h"

namespace fastflex::boosters {

struct RerouteConfig {
  SimTime probe_period = 25 * kMillisecond;
  SimTime entry_ttl = 200 * kMillisecond;  // best-path entries expire
  int hop_budget = 16;
  int suspicion_threshold = 60;
  bool reroute_all = false;  // ablation: reroute every flow, not just suspects
  double improve_eps = 0.02; // re-advertise only on meaningful improvement
  /// Ablation: with sticky=false every packet chases the instantaneous best
  /// path, which herds the whole suspect aggregate onto one detour per
  /// probe round (measured in bench_paper's a2 block).
  bool sticky = true;
};

class CongestionReroutePpm : public dataplane::Ppm {
 public:
  /// `host_edge` maps every host address to its edge switch — the
  /// aggregation knowledge a real deployment distributes like a RIB.
  /// `bloom` (optional) lets the module steer *traceroute probes* from
  /// suspicious sources onto the same detour their data takes — in a real
  /// network probes toward a destination share the data path, so a defense
  /// that reroutes data without rerouting probes would be trivially
  /// detectable by comparison.
  CongestionReroutePpm(sim::Network* net, sim::SwitchNode* sw, dataplane::Pipeline* pipe,
                       std::shared_ptr<const std::unordered_map<Address, NodeId>> host_edge,
                       RerouteConfig config = {},
                       std::shared_ptr<SuspiciousSrcBloomPpm> bloom = nullptr);

  void StartTimers();

  void Process(sim::PacketContext& ctx) override;

  struct BestPath {
    NodeId next_hop = kInvalidNode;
    double util = 1e9;
    std::uint64_t round = 0;
    SimTime updated = 0;
  };

  /// Current best next hop toward edge switch `dst` (kInvalidNode if the
  /// entry is missing or stale).
  NodeId BestNextHop(NodeId dst) const;

  /// Flowlet-sticky choice: the next hop assigned to `flow_key` toward
  /// `dst`.  A flow keeps its detour as long as that path stays usable
  /// (entry fresh, utilization not saturated); only then does it re-bind to
  /// the current best.  Without stickiness every suspicious flow would
  /// chase the same momentary best path and the herd would congest it —
  /// the classic distance-vector load-balancing oscillation Hula's
  /// flowlets exist to prevent.
  NodeId StickyNextHop(std::uint64_t flow_key, NodeId dst, SimTime now);

  std::uint64_t probes_originated() const { return probes_originated_; }
  std::uint64_t probes_seen() const { return probes_seen_; }
  std::uint64_t packets_rerouted() const { return packets_rerouted_; }

  void Reset() override {
    table_.clear();
    via_table_.clear();
    flow_choice_.clear();
  }

 private:
  void OriginateProbes();
  void HandleProbe(sim::PacketContext& ctx);

  sim::Network* net_;
  sim::SwitchNode* sw_;
  dataplane::Pipeline* pipe_;
  std::shared_ptr<const std::unordered_map<Address, NodeId>> host_edge_;
  RerouteConfig config_;
  std::shared_ptr<SuspiciousSrcBloomPpm> bloom_;
  bool is_edge_ = false;

  std::unordered_map<NodeId, BestPath> table_;
  struct FlowChoice {
    NodeId next_hop = kInvalidNode;
    NodeId dst = kInvalidNode;
    SimTime bound_at = 0;
  };
  std::unordered_map<std::uint64_t, FlowChoice> flow_choice_;
  // Per (dst, via-neighbor): the last probe-reported path state, consulted
  // when deciding whether a sticky choice is still usable.
  std::unordered_map<std::uint64_t, BestPath> via_table_;
  std::uint64_t origination_round_ = 0;
  std::uint64_t probes_originated_ = 0;
  std::uint64_t probes_seen_ = 0;
  std::uint64_t packets_rerouted_ = 0;
};

}  // namespace fastflex::boosters
