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

bool FastFailoverPpm::EgressAlive(NodeId next_hop, SimTime now, LinkId* out_link) const {
  const auto l = net_->topology().LinkBetween(sw_->id(), next_hop);
  if (!l) {
    *out_link = kInvalidLink;
    return false;
  }
  *out_link = *l;
  const auto& rt = net_->link_runtime(*l);
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

  const NodeId nh = ctx.next_hop_override != kInvalidNode ? ctx.next_hop_override
                                                          : sw_->NextHopFor(pkt);
  if (nh == kInvalidNode) return;

  const std::uint64_t detoured_by = pkt.TagOr(sim::tag::kFailoverDetour, kNoDetour);
  const bool bounce = detoured_by == static_cast<std::uint64_t>(nh);

  LinkId egress = kInvalidLink;
  if (!bounce && EgressAlive(nh, ctx.now, &egress)) {
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
  if (const auto* candidates = sw_->DstCandidates(pkt.dst)) {
    for (const NodeId c : *candidates) {
      if (c == nh || static_cast<std::uint64_t>(c) == detoured_by) continue;
      if (sw_->Avoids(c)) continue;
      LinkId backup_link = kInvalidLink;
      if (!EgressAlive(c, ctx.now, &backup_link)) continue;
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
  }
  // No live backup: leave the decision alone — the dead link's down_drops
  // counter is the honest record of the blackhole.
  ++no_backup_;
}

}  // namespace fastflex::dataplane
