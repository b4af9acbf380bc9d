#include "runtime/state_transfer.h"

namespace fastflex::runtime {

using dataplane::PpmKind;
using dataplane::PpmSignature;
using dataplane::ResourceVector;
namespace tag = sim::tag;

SendStateResult SendState(sim::Network* net, sim::SwitchNode* from, Address to_addr,
                          std::uint64_t transfer_id,
                          const std::vector<std::uint64_t>& words,
                          const StateTransferOptions& options) {
  const auto groups = dataplane::FecEncode(words, options.fec_k);

  auto base_packet = [&] {
    sim::Packet pkt;
    pkt.kind = sim::PacketKind::kStateTransfer;
    pkt.src = net->topology().node(from->id()).address;
    pkt.dst = to_addr;
    pkt.ttl = 64;
    pkt.size_bytes = options.packet_bytes;
    pkt.seq = transfer_id;
    pkt.ack = words.size();
    pkt.src_port = static_cast<std::uint16_t>(options.fec_k);
    return pkt;
  };

  SendStateResult result;
  SimTime when = 0;
  auto dispatch = [&](sim::Packet pkt) {
    if (options.inject_loss > 0.0 && net->rng().Bernoulli(options.inject_loss)) return;
    if (when == 0) {
      from->SendRouted(std::move(pkt));
    } else {
      net->events().ScheduleAfter(when, [from, p = std::move(pkt)]() mutable {
        from->SendRouted(std::move(p));
      });
    }
    ++result.packets;
    result.duration = when;
    when += options.pace_gap;
  };

  for (const auto& group : groups) {
    for (const auto& w : group.words) {
      sim::Packet pkt = base_packet();
      pkt.SetTag(tag::kStateWordIndex, w.index);
      pkt.SetTag(tag::kStateWordValue, w.value);
      dispatch(std::move(pkt));
    }
    if (options.send_parity) {
      sim::Packet pkt = base_packet();
      pkt.SetTag(tag::kFecGroup, group.group_id);
      pkt.SetTag(tag::kFecParity, group.parity);
      dispatch(std::move(pkt));
    }
  }
  return result;
}

StateCollectorPpm::StateCollectorPpm(sim::Network* net, sim::SwitchNode* sw)
    : Ppm("state_collector", PpmSignature{PpmKind::kDeparser, {0x57a7e}},
          ResourceVector{0.5, 0.2, 0.0, 2.0}, dataplane::mode::kAlwaysOn),
      net_(net),
      sw_(sw) {}

void StateCollectorPpm::ExpectTransfer(std::uint64_t transfer_id, Handler handler) {
  handlers_[transfer_id] = std::move(handler);
  // If the transfer already finished before registration, fire immediately.
  auto it = pending_.find(transfer_id);
  if (it != pending_.end() && it->second.done) {
    handlers_[transfer_id](transfer_id, it->second.words);
    handlers_.erase(transfer_id);
  }
}

StateCollectorPpm::Pending& StateCollectorPpm::GetOrCreate(std::uint64_t id, std::size_t total,
                                                           std::size_t k) {
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    Pending p;
    p.decoder = std::make_unique<dataplane::FecDecoder>(total, k);
    it = pending_.emplace(id, std::move(p)).first;
  }
  return it->second;
}

void StateCollectorPpm::Process(sim::PacketContext& ctx) {
  const sim::Packet& pkt = ctx.pkt;
  if (pkt.kind != sim::PacketKind::kStateTransfer) return;
  if (pkt.dst != net_->topology().node(sw_->id()).address) return;  // transiting
  ctx.consume = true;

  const std::uint64_t id = pkt.seq;
  const auto total = static_cast<std::size_t>(pkt.ack);
  const auto k = static_cast<std::size_t>(pkt.src_port);
  Pending& p = GetOrCreate(id, total, k);
  p.last_update = net_->Now();
  if (p.done) return;

  if (pkt.HasTag(tag::kStateWordIndex)) {
    p.decoder->AddDataWord(static_cast<std::uint32_t>(pkt.TagOr(tag::kStateWordIndex, 0)),
                           pkt.TagOr(tag::kStateWordValue, 0));
  } else if (pkt.HasTag(tag::kFecGroup)) {
    p.decoder->AddParity(static_cast<std::uint32_t>(pkt.TagOr(tag::kFecGroup, 0)),
                         pkt.TagOr(tag::kFecParity, 0));
  }

  if (p.decoder->Complete()) {
    p.done = true;
    p.words = *p.decoder->Result();
    auto h = handlers_.find(id);
    if (h != handlers_.end()) {
      h->second(id, p.words);
      handlers_.erase(h);
    }
  }
}

std::size_t StateCollectorPpm::MissingWords(std::uint64_t id) const {
  auto it = pending_.find(id);
  return it == pending_.end() ? static_cast<std::size_t>(-1) : it->second.decoder->MissingCount();
}

std::size_t StateCollectorPpm::RecoveredWords(std::uint64_t id) const {
  auto it = pending_.find(id);
  return it == pending_.end() ? 0 : it->second.decoder->recovered();
}

bool StateCollectorPpm::Completed(std::uint64_t id) const {
  auto it = pending_.find(id);
  return it != pending_.end() && it->second.done;
}

std::vector<std::uint64_t> StateCollectorPpm::CompletedWords(std::uint64_t id) const {
  auto it = pending_.find(id);
  return (it != pending_.end() && it->second.done) ? it->second.words
                                                   : std::vector<std::uint64_t>{};
}

SimTime StateCollectorPpm::LastUpdate(std::uint64_t id) const {
  auto it = pending_.find(id);
  return it == pending_.end() ? 0 : it->second.last_update;
}

}  // namespace fastflex::runtime
