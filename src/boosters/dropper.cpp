#include "boosters/dropper.h"

#include "sim/switch_node.h"

namespace fastflex::boosters {

using dataplane::PpmKind;
using dataplane::PpmSignature;
using dataplane::ResourceVector;

PacketDropperPpm::PacketDropperPpm(sim::Network* net, int drop_threshold,
                                   double drop_probability)
    : Ppm("packet_dropper",
          PpmSignature{PpmKind::kDropPolicy, {static_cast<std::uint64_t>(drop_threshold)}},
          ResourceVector{1.0, 0.25, 128.0, 2.0}, dataplane::mode::kLfaDrop),
      net_(net),
      threshold_(drop_threshold),
      probability_(drop_probability) {}

void PacketDropperPpm::Process(sim::PacketContext& ctx) {
  sim::Packet& pkt = ctx.pkt;
  if (pkt.kind != sim::PacketKind::kData && pkt.kind != sim::PacketKind::kUdp) return;
  const auto suspicion = static_cast<int>(pkt.TagOr(sim::tag::kSuspicion, 0));
  if (suspicion < threshold_) return;
  // Each packet faces the drop lottery once, at the first dropper on its
  // path; per-hop re-evaluation would compound the probability.
  if (pkt.HasTag(sim::tag::kDropEvaluated)) return;
  pkt.SetTag(sim::tag::kDropEvaluated, 1);
  if (net_->rng().Bernoulli(probability_)) {
    ctx.drop = true;
    ++dropped_;
  }
}

}  // namespace fastflex::boosters
