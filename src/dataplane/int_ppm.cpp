#include "dataplane/int_ppm.h"

#include <algorithm>
#include <cmath>

namespace fastflex::dataplane {

namespace {

/// Only forward-path data traffic is stamped.  ACKs are excluded because a
/// flow's ACKs share its FlowId while walking the reverse path — stamping
/// both directions would read as constant path churn.  Control probes, ICMP
/// replies, and state-transfer carriers measure (or ARE) the control loop.
bool StampableKind(sim::PacketKind kind, bool include_udp) {
  switch (kind) {
    case sim::PacketKind::kData:
      return true;
    case sim::PacketKind::kUdp:
      return include_udp;
    default:
      return false;
  }
}

PpmSignature SourceSignature(const IntMatchRule& rule) {
  std::vector<std::uint64_t> params = {rule.include_udp ? 1u : 0u, rule.sample_every};
  for (Address a : rule.dsts) params.push_back(a);
  return {PpmKind::kIntSource, std::move(params)};
}

}  // namespace

// Resource demands: the source needs one match stage plus TCAM for the flow
// selector; transit needs header-insertion stages, ALUs to read queue/mode
// registers, and a slice of SRAM for the template; the sink needs a match
// stage and ALUs to lift the stack out.  Sized so the trio fits alongside
// the LFA suite on a default switch but NOT on a starved one — admission
// rejection is a tested behavior, not a theoretical one.
IntSourcePpm::IntSourcePpm(sim::SwitchNode* sw,
                           std::shared_ptr<const HostEdgeMap> host_edge,
                           IntMatchRule rule)
    : Ppm("int_source", SourceSignature(rule), {1.0, 0.25, 128.0, 1.0},
          mode::kIntTelemetry),
      sw_(sw),
      host_edge_(std::move(host_edge)),
      rule_(std::move(rule)),
      dst_filter_(rule_.dsts.begin(), rule_.dsts.end()) {}

void IntSourcePpm::Process(sim::PacketContext& ctx) {
  sim::Packet& pkt = ctx.pkt;
  if (!StampableKind(pkt.kind, rule_.include_udp)) return;
  if (pkt.int_stack) return;  // already stamped upstream
  if (!dst_filter_.empty() && dst_filter_.find(pkt.dst) == dst_filter_.end()) return;

  // Stamp only at the packet's ingress edge, so a journey always starts at
  // hop one and mid-path activation cannot produce half paths.
  if (host_edge_ != nullptr) {
    auto it = host_edge_->find(pkt.src);
    if (it == host_edge_->end() || it->second != sw_->id()) return;
  }

  const std::uint64_t n = matched_++;
  if (rule_.sample_every > 1 && (n % rule_.sample_every) != 0) return;

  pkt.int_stack.GetOrCreate();
  ++stamped_;
}

IntTransitPpm::IntTransitPpm(sim::Network* net, sim::SwitchNode* sw, Pipeline* pipe,
                             std::function<std::uint64_t()> epoch_fn)
    : Ppm("int_transit", {PpmKind::kIntTransit, {telemetry::kMaxIntHops}},
          {2.0, 1.0, 0.0, 4.0}, mode::kIntTelemetry),
      net_(net),
      sw_(sw),
      pipe_(pipe),
      epoch_fn_(std::move(epoch_fn)) {}

void IntTransitPpm::Process(sim::PacketContext& ctx) {
  sim::Packet& pkt = ctx.pkt;
  if (!pkt.int_stack) return;

  telemetry::IntHopRecord rec;
  rec.switch_id = sw_->id();
  rec.ingress_at = ctx.now;
  rec.egress_at = ctx.now;
  rec.mode_word = pipe_->active_modes();
  rec.mode_epoch = epoch_fn_ ? epoch_fn_() : 0;

  // Observe the egress queue this packet is about to join: the pipeline's
  // override if one was made by now (reroute and fast failover run before
  // transit by phase), else the routing tables' choice, which
  // SwitchNode::Receive then reuses.
  const LinkId link = sw_->EgressFor(ctx).link;
  if (link != kInvalidLink) {
    const sim::LinkRuntime& rt = net_->link_runtime(link);
    const sim::LinkInfo& info = net_->topology().link(link);
    rec.queue_bytes = rt.queued_bytes;
    const SimTime start = std::max(ctx.now, rt.next_free);
    const SimTime serialize =
        info.rate_bps > 0.0
            ? static_cast<SimTime>(std::ceil(static_cast<double>(pkt.size_bytes) * 8.0 /
                                             info.rate_bps * 1e9))
            : 0;
    rec.egress_at = start + serialize;
  }

  if (pkt.int_stack->Push(rec)) {
    ++appended_;
  } else {
    ++overflowed_;
  }
}

IntSinkPpm::IntSinkPpm(sim::SwitchNode* sw, std::shared_ptr<const HostEdgeMap> host_edge,
                       telemetry::IntCollector* collector)
    : Ppm("int_sink", {PpmKind::kIntSink, {}}, {1.0, 0.25, 0.0, 2.0},
          mode::kAlwaysOn),
      sw_(sw),
      host_edge_(std::move(host_edge)),
      collector_(collector) {}

void IntSinkPpm::Process(sim::PacketContext& ctx) {
  sim::Packet& pkt = ctx.pkt;
  if (!pkt.int_stack) return;

  // Strip only at the packet's egress edge; elsewhere the stack rides on.
  if (host_edge_ != nullptr) {
    auto it = host_edge_->find(pkt.dst);
    if (it == host_edge_->end() || it->second != sw_->id()) return;
  }

  if (collector_ != nullptr) {
    telemetry::IntJourney journey;
    journey.flow = pkt.flow;
    journey.flow_key = sim::FlowKey(pkt);
    journey.seq = pkt.seq;
    journey.sent_at = pkt.sent_at;
    journey.completed_at = ctx.now;
    journey.dropped_hops = pkt.int_stack->dropped_hops;
    journey.hops = std::move(pkt.int_stack->hops);
    collector_->Ingest(std::move(journey));
  }
  pkt.int_stack.Reset();
  ++journeys_completed_;
}

}  // namespace fastflex::dataplane
