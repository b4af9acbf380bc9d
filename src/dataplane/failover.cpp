#include "dataplane/failover.h"

namespace fastflex::dataplane {

namespace {
// Sentinel for "this packet carries no detour tag" — distinct from every
// real NodeId, which is non-negative.
constexpr std::uint64_t kNoDetour = ~0ull;
}  // namespace

FastFailoverPpm::FastFailoverPpm(sim::Network* net, sim::SwitchNode* sw,
                                 FailoverConfig config)
    : Ppm("fast_failover",
          PpmSignature{PpmKind::kFastFailover,
                       {static_cast<std::uint64_t>(config.port_down_detect / kMillisecond)}},
          ResourceVector{1.0, 0.25, 64.0, 2.0}, mode::kAlwaysOn),
      net_(net),
      sw_(sw),
      config_(config) {}

bool FastFailoverPpm::EgressAlive(LinkId link, SimTime now) const {
  if (link == kInvalidLink) return false;
  const auto& rt = net_->link_runtime(link);
  if (rt.up) return true;
  // Down, but within the detection window: the port status register has not
  // flipped yet, so the pipeline still believes the link is alive.
  return now - rt.down_since < config_.port_down_detect;
}

void FastFailoverPpm::Process(sim::PacketContext& ctx) {
  sim::Packet& pkt = ctx.pkt;
  // Control floods are link-scoped, not routed; their per-link copies die on
  // dead links by physics, and the flood's redundancy is the recovery.
  if (pkt.kind == sim::PacketKind::kProbe) return;

  const sim::SwitchNode::Egress out = sw_->EgressFor(ctx);
  const NodeId nh = out.next_hop;
  if (nh == kInvalidNode) return;

  const std::uint64_t detoured_by = pkt.TagOr(sim::tag::kFailoverDetour, kNoDetour);
  const bool bounce = detoured_by == static_cast<std::uint64_t>(nh);

  const LinkId egress = out.link;
  if (!bounce && EgressAlive(egress, ctx.now)) {
    // Primary usable again: close any open detour episode on this egress.
    if (!failed_over_.empty() && failed_over_.erase(egress) > 0 &&
        telem_ != nullptr) {
      telem_->trace().Event(ctx.now, "fault.failback",
                            {{"node", sw_->id()}, {"link", egress}});
    }
    return;
  }

  // Dead egress (or a detoured packet that would bounce straight back):
  // first live, non-avoided backup candidate wins.
  for (const NodeId c : sw_->DstCandidates(pkt.dst)) {
    if (c == nh || static_cast<std::uint64_t>(c) == detoured_by) continue;
    if (sw_->Avoids(c)) continue;
    if (!EgressAlive(sw_->LinkTo(c), ctx.now)) continue;
    ctx.next_hop_override = c;
    pkt.SetTag(sim::tag::kFailoverDetour, static_cast<std::uint64_t>(sw_->id()));
    ++failovers_;
    if (!bounce && egress != kInvalidLink && failed_over_.insert(egress).second &&
        telem_ != nullptr) {
      telem_->trace().Event(ctx.now, "fault.failover",
                            {{"node", sw_->id()}, {"link", egress}, {"aux", c}});
    }
    return;
  }
  // No live backup: leave the decision alone — the dead link's down_drops
  // counter is the honest record of the blackhole.
  ++no_backup_;
}

}  // namespace fastflex::dataplane
