#include "boosters/syn_proxy.h"

#include <algorithm>
#include <bit>

#include "util/hash.h"
#include "util/logging.h"

namespace fastflex::boosters {

using dataplane::PpmKind;
using dataplane::PpmSignature;
using dataplane::ResourceVector;
using sim::PacketKind;

namespace {

/// FlowKey of the reversed 5-tuple: the forward (client -> server) key of a
/// server -> client packet.  All handshake/teardown kinds hash as TCP.
std::uint64_t ReverseFlowKey(const sim::Packet& p) {
  std::uint64_t k = (static_cast<std::uint64_t>(p.dst) << 32) | p.src;
  k ^= (static_cast<std::uint64_t>(p.dst_port) << 48) |
       (static_cast<std::uint64_t>(p.src_port) << 32) | 6ULL;
  return k;
}

bool Contains(const std::vector<Address>& v, Address a) {
  return std::find(v.begin(), v.end(), a) != v.end();
}

}  // namespace

std::uint64_t SynCookie(std::uint64_t secret, Address src, Address dst,
                        std::uint16_t src_port, std::uint16_t dst_port,
                        std::uint64_t client_isn, std::uint64_t bucket) {
  std::uint64_t k = (static_cast<std::uint64_t>(src) << 32) | dst;
  k = HashCombine(k, (static_cast<std::uint64_t>(src_port) << 16) | dst_port);
  k = HashCombine(k, client_isn);
  k = HashCombine(k, bucket);
  const std::uint64_t h = HashKey(k, secret) & 0xffffffffULL;
  return h == 0 ? 1 : h;
}

// ---------------------------------------------------------------------------
// SynRateDetectorPpm
// ---------------------------------------------------------------------------

SynRateDetectorPpm::SynRateDetectorPpm(sim::Network* net, sim::SwitchNode* sw,
                                       std::vector<Address> protected_dsts,
                                       SynProxyConfig config,
                                       HardeningConfig hardening, AlarmFn alarm)
    : Ppm("syn_rate_detector",
          PpmSignature{PpmKind::kSynRateDetector,
                       {static_cast<std::uint64_t>(config.syn_rate_alarm)}},
          ResourceVector{1.0, 0.1, 0.0, 2.0}, dataplane::mode::kAlwaysOn),
      net_(net),
      sw_(sw),
      protected_dsts_(std::move(protected_dsts)),
      config_(config),
      hard_(hardening),
      alarm_(std::move(alarm)) {}

void SynRateDetectorPpm::StartTimers() {
  std::weak_ptr<Ppm> weak = weak_from_this();
  net_->events().ScheduleAfter(config_.check_period, [weak] {
    if (auto self = weak.lock()) {
      auto* me = static_cast<SynRateDetectorPpm*>(self.get());
      me->Check();
      me->StartTimers();
    }
  });
}

void SynRateDetectorPpm::Process(sim::PacketContext& ctx) {
  const sim::Packet& pkt = ctx.pkt;
  // Only raw SYNs count toward the flood rate; a kSynProxied SYN already
  // proved its sender's liveness at an upstream proxy.
  if (pkt.kind != PacketKind::kSyn || pkt.HasTag(sim::tag::kSynProxied)) return;
  if (!Contains(protected_dsts_, pkt.dst)) return;
  ++window_syns_;
}

void SynRateDetectorPpm::Check() {
  const double dt = ToSeconds(config_.check_period);
  last_rate_ = static_cast<double>(window_syns_) / dt;
  window_syns_ = 0;

  if (!alarm_active_) {
    if (last_rate_ >= config_.syn_rate_alarm) {
      // Raise-side persistence: require `persist_checks` consecutive hot
      // windows.  A threshold-straddling pulser that spikes for a single
      // window per duty cycle never accumulates enough, so it cannot flap
      // the mode fabric; a real sustained flood is delayed by only
      // (persist_checks - 1) windows.
      if (++above_count_ >= std::max(1, hard_.persist_checks)) {
        alarm_active_ = true;
        above_count_ = 0;
        below_count_ = 0;
        FF_LOG(kInfo) << "SYN-flood alarm at switch " << sw_->id() << " ("
                      << last_rate_ << " SYN/s)";
        if (alarm_) alarm_(dataplane::attack::kSynFlood, dataplane::mode::kSynDefense, true);
      } else {
        ++raises_suppressed_;
      }
    } else {
      above_count_ = 0;
    }
    return;
  }
  if (last_rate_ <= config_.syn_rate_clear) {
    if (++below_count_ >= config_.clear_checks) {
      alarm_active_ = false;
      below_count_ = 0;
      if (alarm_) alarm_(dataplane::attack::kSynFlood, dataplane::mode::kSynDefense, false);
    }
  } else {
    below_count_ = 0;
  }
}

// ---------------------------------------------------------------------------
// SynProxyPpm
// ---------------------------------------------------------------------------

SynProxyPpm::SynProxyPpm(sim::Network* net, sim::SwitchNode* sw,
                         std::vector<Address> protected_dsts, SynProxyConfig config,
                         HardeningConfig hardening, std::uint64_t filter_salt)
    : Ppm("syn_proxy",
          PpmSignature{PpmKind::kSynProxy,
                       {std::bit_ceil(config.filter_buckets), config.filter_fp_bits}},
          // The SRAM demand reflects the configured filter geometry, so
          // pipeline admission rejects a filter that outgrows the stage
          // memory budget instead of silently under-tracking.
          ResourceVector{2.0,
                         dataplane::CuckooFilter::SramCostMb(config.filter_buckets,
                                                             config.filter_fp_bits) +
                             0.05,
                         128.0, 6.0},
          dataplane::mode::kSynDefense),
      net_(net),
      sw_(sw),
      protected_dsts_(std::move(protected_dsts)),
      config_(config),
      hard_(hardening),
      filter_(config.filter_buckets, config.filter_fp_bits, config.filter_max_kicks,
              filter_salt != 0 ? filter_salt : dataplane::CuckooFilter::kDefaultSeed) {}

void SynProxyPpm::StartTimers() {
  std::weak_ptr<Ppm> weak = weak_from_this();
  net_->events().ScheduleAfter(config_.sweep_period, [weak] {
    if (auto self = weak.lock()) {
      auto* me = static_cast<SynProxyPpm*>(self.get());
      me->SweepIdle();
      me->StartTimers();
    }
  });
}

bool SynProxyPpm::IsProtected(Address a) const { return Contains(protected_dsts_, a); }

std::uint64_t SynProxyPpm::CookieFor(const sim::Packet& syn, SimTime now) const {
  const auto bucket = static_cast<std::uint64_t>(now / config_.cookie_rotate);
  return SynCookie(config_.cookie_secret, syn.src, syn.dst, syn.src_port, syn.dst_port,
                   syn.seq, bucket);
}

bool SynProxyPpm::ValidCookie(const sim::Packet& ack, SimTime now) const {
  const auto bucket = static_cast<std::uint64_t>(now / config_.cookie_rotate);
  // The ACK's seq is the client ISN the cookie was minted over; accept the
  // current bucket and the previous one (a handshake may straddle the
  // rotation), so a replayed cookie dies within two rotation periods.
  if (ack.ack == SynCookie(config_.cookie_secret, ack.src, ack.dst, ack.src_port,
                           ack.dst_port, ack.seq, bucket)) {
    return true;
  }
  return bucket > 0 &&
         ack.ack == SynCookie(config_.cookie_secret, ack.src, ack.dst, ack.src_port,
                              ack.dst_port, ack.seq, bucket - 1);
}

void SynProxyPpm::Process(sim::PacketContext& ctx) {
  sim::Packet& pkt = ctx.pkt;

  // Reverse direction: the protected server's own traffic is never policed,
  // but its FIN/RST tears down the tracked forward connection.
  if (IsProtected(pkt.src)) {
    if (pkt.kind == PacketKind::kFin || pkt.kind == PacketKind::kRst) {
      const std::uint64_t key = ReverseFlowKey(pkt);
      if (filter_.Delete(key)) {
        last_seen_.erase(key);
        ++filter_deletes_;
      }
    }
    return;
  }
  if (!IsProtected(pkt.dst)) return;

  switch (pkt.kind) {
    case PacketKind::kSyn: {
      const std::uint64_t key = sim::FlowKey(pkt);
      if (pkt.HasTag(sim::tag::kSynProxied)) {
        // Replayed handshake validated by an upstream proxy: adopt the
        // connection and let it continue toward the server.
        if (filter_.Insert(key)) {
          last_seen_[key] = ctx.now;
          ++filter_inserts_;
        } else {
          ++filter_insert_failures_;
        }
        return;
      }
      // Raw SYN: answer statelessly with a cookie ISN and absorb it.  A
      // spoofed source never returns the cookie, so the flood costs this
      // switch zero state and the server nothing at all.
      sim::Packet synack;
      synack.kind = PacketKind::kSynAck;
      synack.flow = pkt.flow;
      synack.src = pkt.dst;
      synack.dst = pkt.src;
      synack.src_port = pkt.dst_port;
      synack.dst_port = pkt.src_port;
      synack.size_bytes = 40;
      synack.seq = CookieFor(pkt, ctx.now);
      synack.ack = pkt.seq;
      ctx.emit.push_back({std::move(synack), kInvalidNode});
      ctx.consume = true;
      ++cookies_sent_;
      return;
    }
    case PacketKind::kAck: {
      const std::uint64_t key = sim::FlowKey(pkt);
      if (filter_.Contains(key)) {
        last_seen_[key] = ctx.now;
        return;
      }
      if (ValidCookie(pkt, ctx.now)) {
        // The cookie proves address ownership, not honesty: a non-spoofed
        // bot can mint it without ever sending a SYN.  Police per-source
        // admission rate before creating any state, so an ACK-flood of
        // self-minted cookies cannot fill the filter.
        if (!AdmitAllowed(pkt.src, ctx.now)) {
          ++admissions_policed_;
          ++policed_drops_;
          ctx.drop = true;
          return;
        }
        // The client proved it owns its source address.  Rewrite the ACK in
        // place into the SYN the server never saw, tagged so downstream
        // proxies adopt it and the server's edge learns the cookie.
        ++handshakes_validated_;
        pkt.SetTag(sim::tag::kSynProxied, 1);
        pkt.SetTag(sim::tag::kSynCookie, pkt.ack);
        pkt.kind = PacketKind::kSyn;  // seq already carries the client ISN
        pkt.ack = 0;
        if (filter_.Insert(key)) {
          last_seen_[key] = ctx.now;
          ++filter_inserts_;
        } else {
          ++filter_insert_failures_;
        }
        return;
      }
      ++invalid_cookies_;
      ++policed_drops_;
      ctx.drop = true;
      return;
    }
    case PacketKind::kData:
    case PacketKind::kFin:
    case PacketKind::kRst: {
      const std::uint64_t key = sim::FlowKey(pkt);
      if (filter_.Contains(key)) {
        if (pkt.kind == PacketKind::kData) {
          last_seen_[key] = ctx.now;
        } else {
          // Teardown: forget the flow but forward the segment, so the
          // server (and every downstream tracker) tears down too.
          if (filter_.Delete(key)) ++filter_deletes_;
          last_seen_.erase(key);
        }
        return;
      }
      ++policed_drops_;
      ctx.drop = true;
      return;
    }
    default:
      return;  // probes, UDP, traceroute: out of scope
  }
}

bool SynProxyPpm::AdmitAllowed(Address src, SimTime now) {
  if (hard_.admit_rate_per_s <= 0.0) return true;  // policing disabled
  auto [it, fresh] = admit_.try_emplace(src, AdmitBucket{hard_.admit_burst, now});
  AdmitBucket& b = it->second;
  if (!fresh) {
    b.tokens = std::min(hard_.admit_burst,
                        b.tokens + ToSeconds(now - b.last) * hard_.admit_rate_per_s);
    b.last = now;
  }
  if (b.tokens < 1.0) return false;
  b.tokens -= 1.0;
  return true;
}

void SynProxyPpm::SweepIdle() {
  const SimTime now = net_->Now();
  for (auto it = last_seen_.begin(); it != last_seen_.end();) {
    if (now - it->second >= config_.idle_timeout) {
      if (filter_.Delete(it->first)) ++idle_evictions_;
      it = last_seen_.erase(it);
    } else {
      ++it;
    }
  }
  // Admission buckets refilled back to a full burst carry no information —
  // drop them so the table tracks only recently active sources.
  for (auto it = admit_.begin(); it != admit_.end();) {
    const double refilled =
        it->second.tokens + ToSeconds(now - it->second.last) * hard_.admit_rate_per_s;
    if (refilled >= hard_.admit_burst) {
      it = admit_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// SeqTranslatePpm
// ---------------------------------------------------------------------------

SeqTranslatePpm::SeqTranslatePpm(
    sim::Network* net, sim::SwitchNode* sw,
    std::shared_ptr<const std::unordered_map<Address, NodeId>> host_edge,
    std::vector<Address> protected_dsts, SynProxyConfig config)
    : Ppm("seq_translate", PpmSignature{PpmKind::kSeqTranslate, {1}},
          ResourceVector{1.5, 0.5, 0.0, 4.0}, dataplane::mode::kAlwaysOn),
      net_(net),
      sw_(sw),
      host_edge_(std::move(host_edge)),
      protected_dsts_(std::move(protected_dsts)),
      config_(config) {}

void SeqTranslatePpm::StartTimers() {
  std::weak_ptr<Ppm> weak = weak_from_this();
  net_->events().ScheduleAfter(config_.sweep_period, [weak] {
    if (auto self = weak.lock()) {
      auto* me = static_cast<SeqTranslatePpm*>(self.get());
      me->Sweep();
      me->StartTimers();
    }
  });
}

bool SeqTranslatePpm::IsProtected(Address a) const { return Contains(protected_dsts_, a); }

bool SeqTranslatePpm::AtOwnEdge(Address a) const {
  auto it = host_edge_->find(a);
  return it != host_edge_->end() && it->second == sw_->id();
}

void SeqTranslatePpm::Process(sim::PacketContext& ctx) {
  sim::Packet& pkt = ctx.pkt;

  // Server -> client: rewrite outgoing sequence numbers at the protected
  // host's own edge switch, before the packet enters the network.
  if (IsProtected(pkt.src) && AtOwnEdge(pkt.src)) {
    const std::uint64_t key = ReverseFlowKey(pkt);
    if (pkt.kind == PacketKind::kSynAck) {
      auto it = pending_.find(key);
      if (it == pending_.end()) return;  // unproxied handshake: untouched
      // The server answered the replayed handshake with its own ISN, but
      // the client already numbered the connection from the cookie.  Learn
      // the shift, absorb the SYN-ACK, and complete the handshake on the
      // client's behalf — it ACKed the cookie long ago.
      const std::uint64_t delta = it->second.cookie - pkt.seq;
      established_[key] = Established{delta, ctx.now};
      ++translations_established_;
      sim::Packet ack;
      ack.kind = PacketKind::kAck;
      ack.flow = pkt.flow;
      ack.src = pkt.dst;
      ack.dst = pkt.src;
      ack.src_port = pkt.dst_port;
      ack.dst_port = pkt.src_port;
      ack.size_bytes = 40;
      ack.seq = pkt.ack;  // the client ISN the server echoed
      ack.ack = pkt.seq;  // the server ISN being acknowledged
      ctx.emit.push_back({std::move(ack), kInvalidNode});
      pending_.erase(it);
      ctx.consume = true;
      return;
    }
    if (pkt.kind == PacketKind::kData || pkt.kind == PacketKind::kFin ||
        pkt.kind == PacketKind::kRst) {
      auto it = established_.find(key);
      if (it == established_.end()) return;
      pkt.seq += it->second.delta;
      it->second.last_seen = ctx.now;
      ++seq_translated_;
      if (pkt.kind == PacketKind::kRst) established_.erase(it);
    }
    return;
  }

  // Client -> server: shift incoming ACKs back into the server's space.
  if (!IsProtected(pkt.dst) || !AtOwnEdge(pkt.dst)) return;
  switch (pkt.kind) {
    case PacketKind::kSyn:
      if (pkt.HasTag(sim::tag::kSynProxied)) {
        pending_[sim::FlowKey(pkt)] =
            Pending{pkt.TagOr(sim::tag::kSynCookie, 0), ctx.now};
      }
      return;
    case PacketKind::kAck: {
      auto it = established_.find(sim::FlowKey(pkt));
      if (it == established_.end()) return;
      // The SACK bitmap rides along untouched: it is relative to the
      // cumulative ACK, and a uniform shift preserves relative offsets.
      pkt.ack -= it->second.delta;
      it->second.last_seen = ctx.now;
      ++seq_translated_;
      return;
    }
    case PacketKind::kRst: {
      const std::uint64_t key = sim::FlowKey(pkt);
      pending_.erase(key);
      established_.erase(key);
      return;
    }
    default:
      return;
  }
}

void SeqTranslatePpm::Sweep() {
  const SimTime now = net_->Now();
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now - it->second.created >= config_.idle_timeout) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = established_.begin(); it != established_.end();) {
    if (now - it->second.last_seen >= config_.translate_idle_timeout) {
      it = established_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace fastflex::boosters
