#include "runtime/mode_protocol.h"

#include <algorithm>
#include <map>
#include <vector>

#include "util/hash.h"
#include "util/logging.h"

namespace fastflex::runtime {

using dataplane::PpmKind;
using dataplane::PpmSignature;
using dataplane::ResourceVector;

std::uint64_t ProbeAuthTag(std::uint64_t key, const sim::ProbePayload& p) {
  std::uint64_t m = HashCombine(static_cast<std::uint64_t>(p.type), p.mode_bit);
  m = HashCombine(m, p.activate ? 1u : 0u);
  m = HashCombine(m, p.epoch);
  m = HashCombine(m, static_cast<std::uint64_t>(p.origin));
  m = HashCombine(m, p.attack_type);
  m = HashCombine(m, p.region);
  const std::uint64_t tag = HashKey(m, key);
  return tag == 0 ? 1 : tag;
}

ModeProtocolPpm::ModeProtocolPpm(sim::Network* net, sim::SwitchNode* sw,
                                 dataplane::Pipeline* pipe, ModeProtocolConfig config)
    : Ppm("mode_protocol",
          PpmSignature{PpmKind::kAlarmGenerator, {static_cast<std::uint64_t>(config.hop_budget)}},
          ResourceVector{0.5, 0.1, 0.0, 2.0}, dataplane::mode::kAlwaysOn),
      net_(net),
      sw_(sw),
      pipe_(pipe),
      config_(config) {}

sim::Packet ModeProtocolPpm::MakeProbePacket(const sim::ProbePayload& payload) const {
  sim::Packet pkt;
  pkt.kind = sim::PacketKind::kProbe;
  pkt.src = net_->topology().node(sw_->id()).address;
  pkt.dst = 0;  // link-scoped, not routed
  pkt.ttl = 64;
  pkt.size_bytes = config_.probe_size_bytes;
  auto probe = std::make_shared<sim::ProbePayload>(payload);
  // Every legitimate protocol emission funnels through here (alarms, flood
  // retries, forwards, reconfig notices, sync traffic), so this is the one
  // stamping site the authenticator needs.
  if (config_.auth_key != 0) probe->auth = ProbeAuthTag(config_.auth_key, *probe);
  pkt.probe = std::move(probe);
  return pkt;
}

void ModeProtocolPpm::Flood(const sim::ProbePayload& payload, LinkId except_in) {
  sw_->FloodToSwitchNeighbors(MakeProbePacket(payload), except_in);
}

bool ModeProtocolPpm::BitAsserted(std::uint32_t bit) const {
  auto it = origins_.find(bit);
  return it != origins_.end() && !it->second.empty();
}

void ModeProtocolPpm::TryClearBit(std::uint32_t bit, std::uint64_t epoch) {
  if (BitAsserted(bit)) return;  // someone re-asserted meanwhile
  const SimTime now = net_->Now();
  const SimTime last = last_activation_[bit];
  if (now - last >= config_.holddown) {
    if (pipe_->ModeActive(bit)) {
      pipe_->DeactivateMode(bit);
      last_mode_change_ = now;
      ++mode_applications_;
      if (telem_ != nullptr) {
        telem_->trace().Event(now, "mode_change",
                              {{"switch", sw_->id()},
                               {"origin", sw_->id()},
                               {"epoch", static_cast<std::int64_t>(epoch)},
                               {"bit", bit},
                               {"on", 0}});
      }
    }
    return;
  }
  // Inside the hold-down: defer the clear until it expires, then re-check.
  std::weak_ptr<Ppm> weak = weak_from_this();
  net_->events().ScheduleAt(last + config_.holddown, [weak, bit, epoch] {
    if (auto self = weak.lock()) {
      static_cast<ModeProtocolPpm*>(self.get())->TryClearBit(bit, epoch);
    }
  });
}

void ModeProtocolPpm::ApplyBits(NodeId origin, std::uint64_t epoch,
                                std::uint32_t mode_bits, bool activate) {
  const SimTime now = net_->Now();
  for (std::uint32_t bit = 1; bit != 0; bit <<= 1) {
    if ((mode_bits & bit) == 0) continue;
    auto& asserters = origins_[bit];
    if (activate) {
      asserters.insert(origin);
      if (!pipe_->ModeActive(bit)) {
        pipe_->ActivateMode(bit);
        last_mode_change_ = now;
        ++mode_applications_;
        if (telem_ != nullptr) {
          telem_->trace().Event(now, "mode_change",
                                {{"switch", sw_->id()},
                                 {"origin", origin},
                                 {"epoch", static_cast<std::int64_t>(epoch)},
                                 {"bit", bit},
                                 {"on", 1}});
        }
      }
      last_activation_[bit] = now;
    } else {
      asserters.erase(origin);
      if (asserters.empty()) TryClearBit(bit, epoch);
    }
  }
}

void ModeProtocolPpm::RaiseAlarm(std::uint32_t attack_type, std::uint32_t mode_bits,
                                 bool activate) {
  const std::uint64_t epoch = next_epoch_++;
  if (telem_ != nullptr) {
    telem_->trace().Event(net_->Now(), "alarm",
                          {{"switch", sw_->id()},
                           {"attack", attack_type},
                           {"bits", mode_bits},
                           {"on", activate ? 1 : 0},
                           {"epoch", static_cast<std::int64_t>(epoch)}});
  }
  ApplyBits(sw_->id(), epoch, mode_bits, activate);
  ++alarms_raised_;

  sim::ProbePayload p;
  p.type = sim::ProbeType::kModeChange;
  p.mode_bit = mode_bits;
  p.activate = activate;
  p.epoch = epoch;
  p.origin = sw_->id();
  p.attack_type = attack_type;
  p.hop_budget = config_.hop_budget;
  p.region = sw_->region();
  Flood(p, kInvalidLink);
  if (config_.flood_retries > 0) ScheduleRetry(p, 1);
}

void ModeProtocolPpm::ScheduleRetry(const sim::ProbePayload& payload, int attempt) {
  // First retry after retry_timeout, each later attempt backed off.
  SimTime delay = config_.retry_timeout;
  for (int i = 1; i < attempt; ++i) {
    delay = static_cast<SimTime>(static_cast<double>(delay) * config_.retry_backoff);
  }
  std::weak_ptr<Ppm> weak = weak_from_this();
  net_->events().ScheduleAfter(delay, [weak, payload, attempt] {
    auto self = weak.lock();
    if (!self) return;
    auto* me = static_cast<ModeProtocolPpm*>(self.get());
    // Superseded (a newer local change was flooded, or a reboot reset the
    // epoch counter): receivers would dedup or mis-order this, so drop it.
    if (me->next_epoch_ != payload.epoch + 1) return;
    ++me->flood_retries_;
    if (me->telem_ != nullptr) {
      me->telem_->trace().Event(me->net_->Now(), "fault.flood_retry",
                                {{"node", me->sw_->id()}, {"aux", attempt}});
    }
    me->Flood(payload, kInvalidLink);
    if (attempt < me->config_.flood_retries) me->ScheduleRetry(payload, attempt + 1);
  });
}

void ModeProtocolPpm::RequestSync() {
  ++resyncs_;
  if (telem_ != nullptr) {
    telem_->trace().Event(net_->Now(), "fault.resync", {{"node", sw_->id()}, {"aux", 0}});
  }
  sim::ProbePayload p;
  p.type = sim::ProbeType::kModeSyncRequest;
  p.origin = sw_->id();
  p.epoch = next_epoch_++;
  p.hop_budget = 1;  // direct neighbors answer; no forwarding
  Flood(p, kInvalidLink);
}

void ModeProtocolPpm::AnswerSyncRequest(const sim::ProbePayload& request,
                                        sim::PacketContext& ctx) {
  // Invert the per-bit assertion sets into a per-origin bit mask, ordered by
  // origin id so the reply sequence is independent of hash-map layout.
  std::map<NodeId, std::uint32_t> asserted;
  for (const auto& [bit, origins] : origins_) {
    for (const NodeId o : origins) asserted[o] |= bit;
  }
  auto reply_epoch = [this](NodeId origin) {
    if (origin == sw_->id()) return next_epoch_ - 1;  // our own latest change
    auto it = seen_epoch_.find(origin);
    return it == seen_epoch_.end() ? std::uint64_t{0} : it->second;
  };
  // Requester-origin bits are included deliberately: the fabric still holds
  // the rebooted switch's pre-crash alarms active, and the defense only
  // works if every switch applies it.  The requester re-adopts the fabric's
  // posture immediately; its re-armed detector refreshes or clears the
  // alarm on its own schedule afterwards.
  bool echoed_requester = false;
  for (const auto& [origin, bits] : asserted) {
    if (bits == 0) continue;
    sim::ProbePayload r;
    r.type = sim::ProbeType::kModeSyncReply;
    r.origin = origin;
    r.epoch = reply_epoch(origin);
    r.mode_bit = bits;
    r.activate = true;
    r.hop_budget = 1;
    ctx.emit.push_back(sim::Emission{MakeProbePacket(r), request.origin});
    if (origin == request.origin) echoed_requester = true;
  }
  // Epoch echo: what we last saw from the requester's pre-crash life.  The
  // rebooted switch fast-forwards past it so its future alarms are not
  // deduplicated as stale replays.  A requester-origin bit reply above
  // already carries that epoch, so the bare echo is only needed when the
  // requester had no asserted bits left in our view.
  if (const auto it = seen_epoch_.find(request.origin);
      !echoed_requester && it != seen_epoch_.end()) {
    sim::ProbePayload r;
    r.type = sim::ProbeType::kModeSyncReply;
    r.origin = request.origin;
    r.epoch = it->second;
    r.mode_bit = 0;  // epoch-only reply
    r.hop_budget = 1;
    ctx.emit.push_back(sim::Emission{MakeProbePacket(r), request.origin});
  }
  if (telem_ != nullptr) {
    telem_->trace().Event(net_->Now(), "fault.resync", {{"node", sw_->id()}, {"aux", 1}});
  }
}

void ModeProtocolPpm::ApplySyncReply(const sim::ProbePayload& reply) {
  if (reply.origin == sw_->id()) {
    // Our own pre-crash state, echoed back by a neighbor: fast-forward past
    // the pre-crash epoch so future alarms are not deduplicated as stale,
    // and re-adopt any of our own alarms the fabric still holds active.
    if (reply.epoch >= next_epoch_) next_epoch_ = reply.epoch + 1;
    if (reply.mode_bit != 0) ApplyBits(sw_->id(), reply.epoch, reply.mode_bit, true);
    return;
  }
  auto& seen = seen_epoch_[reply.origin];
  seen = std::max(seen, reply.epoch);
  if (reply.mode_bit != 0) ApplyBits(reply.origin, reply.epoch, reply.mode_bit, true);
}

void ModeProtocolPpm::AnnounceReconfig(bool going) {
  sim::ProbePayload p;
  p.type = sim::ProbeType::kReconfigNotice;
  p.activate = going;
  p.epoch = next_epoch_++;
  p.origin = sw_->id();
  p.hop_budget = 1;  // notices are for direct neighbors only
  Flood(p, kInvalidLink);
}


void ModeProtocolPpm::Process(sim::PacketContext& ctx) {
  if (ctx.pkt.kind != sim::PacketKind::kProbe || ctx.pkt.probe == nullptr) return;
  // Scoped after the non-probe early-out so only actual protocol work is
  // attributed (the probe-free fast path costs the profiler nothing).
  telemetry::ProfScope prof_scope(net_->profiler(), telemetry::ProfSite::kModeProtocol);
  const sim::ProbePayload& p = *ctx.pkt.probe;

  // Flood authentication, BEFORE any state is touched: a forged probe must
  // not poison per-origin epoch dedup even when rejected.  Only the four
  // protocol types are verified — kUtilization / kDetectorSync pass through
  // unconsumed and belong to other modules.
  const bool protocol_probe = p.type == sim::ProbeType::kModeChange ||
                              p.type == sim::ProbeType::kReconfigNotice ||
                              p.type == sim::ProbeType::kModeSyncRequest ||
                              p.type == sim::ProbeType::kModeSyncReply;
  if (protocol_probe && config_.auth_key != 0 &&
      p.auth != ProbeAuthTag(config_.auth_key, p)) {
    ctx.consume = true;
    ++auth_rejects_;
    return;
  }

  switch (p.type) {
    case sim::ProbeType::kModeChange: {
      ctx.consume = true;
      auto& seen = seen_epoch_[p.origin];
      if (p.epoch <= seen) return;  // duplicate or stale
      seen = p.epoch;
      // Region scoping: a probe for region R only changes switches in R;
      // region 0 is the global wildcard.
      if (p.region == 0 || p.region == sw_->region()) {
        ApplyBits(p.origin, p.epoch, p.mode_bit, p.activate);
      }
      if (p.hop_budget > 1) {
        sim::ProbePayload fwd = p;
        fwd.hop_budget = p.hop_budget - 1;
        ++probes_forwarded_;
        Flood(fwd, ctx.in_link);
      }
      return;
    }
    case sim::ProbeType::kReconfigNotice: {
      ctx.consume = true;
      auto& seen = seen_epoch_[p.origin];
      if (p.epoch <= seen) return;
      seen = p.epoch;
      sw_->SetAvoidNeighbor(p.origin, p.activate);
      return;
    }
    case sim::ProbeType::kModeSyncRequest: {
      // Deliberately NOT epoch-deduplicated: a rebooted requester restarts
      // its epoch counter at 1, which per-origin dedup would discard.
      // One-hop scope bounds the traffic instead.
      ctx.consume = true;
      AnswerSyncRequest(p, ctx);
      return;
    }
    case sim::ProbeType::kModeSyncReply: {
      ctx.consume = true;
      ApplySyncReply(p);
      return;
    }
    case sim::ProbeType::kUtilization:
    case sim::ProbeType::kDetectorSync:
      return;  // handled by routing / sync modules later in the chain
  }
}

}  // namespace fastflex::runtime
