#include "sim/handshake.h"

#include "util/hash.h"

namespace fastflex::sim {

namespace {

Packet ControlPacket(PacketKind kind, FlowId flow, Address src, Address dst,
                     std::uint16_t sport, std::uint16_t dport) {
  Packet pkt;
  pkt.kind = kind;
  pkt.flow = flow;
  pkt.src = src;
  pkt.dst = dst;
  pkt.src_port = sport;
  pkt.dst_port = dport;
  pkt.size_bytes = 40;  // header-only segment
  return pkt;
}

}  // namespace

// ---------------------------------------------------------------------------
// TcpListener
// ---------------------------------------------------------------------------

TcpListener::TcpListener(Network* net, Host* host, TcpListenerConfig config)
    : net_(net), host_(host), config_(config), alive_(std::make_shared<bool>(true)) {
  std::weak_ptr<bool> weak = alive_;
  net_->events().ScheduleAfter(config_.sweep_period, [this, weak] {
    if (!weak.expired()) Sweep();
  });
}

TcpListener::~TcpListener() { *alive_ = false; }

std::uint64_t TcpListener::IsnFor(const Packet& syn) const {
  // Deterministic per-connection ISN: replays are bit-identical, and the
  // value differs from any proxy cookie, so a missing sequence translation
  // is guaranteed to break delivery rather than accidentally line up.
  return (HashKey(FlowKey(syn), config_.isn_salt) & 0xffffff) + 1;
}

void TcpListener::OnPacket(const Packet& pkt) {
  switch (pkt.kind) {
    case PacketKind::kSyn: {
      ++syns_seen_;
      const std::uint64_t key = FlowKey(pkt);
      auto it = half_open_.find(key);
      if (it == half_open_.end()) {
        if (half_open_.size() >= config_.backlog) {
          if (!config_.evict_oldest_when_full) {
            // The victim resource: a full backlog silently refuses new
            // connections — exactly what a SYN flood is after.
            ++syns_refused_;
            return;
          }
          // SYN-cache mode: make room by dropping the oldest half-open
          // entry.  Under a sustained flood this is still a loss for
          // legitimate clients (their entry rarely survives one RTT), but
          // it lets the backlog recover immediately once a defense stops
          // the flood, instead of waiting out half_open_timeout.
          auto oldest = half_open_.begin();
          for (auto hit = half_open_.begin(); hit != half_open_.end(); ++hit) {
            if (hit->second.created < oldest->second.created) oldest = hit;
          }
          half_open_.erase(oldest);
          ++half_open_evictions_;
        }
        HalfOpen entry;
        entry.server_isn = IsnFor(pkt);
        entry.flow = pkt.flow;
        entry.peer = pkt.src;
        entry.peer_port = pkt.src_port;
        entry.local_port = pkt.dst_port;
        entry.created = net_->Now();
        it = half_open_.emplace(key, entry).first;
      }
      Packet synack = ControlPacket(PacketKind::kSynAck, it->second.flow,
                                    host_->address(), it->second.peer,
                                    it->second.local_port, it->second.peer_port);
      synack.seq = it->second.server_isn;
      synack.ack = pkt.seq;  // echo the client ISN
      host_->SendPacket(std::move(synack));
      return;
    }
    case PacketKind::kAck: {
      const std::uint64_t key = FlowKey(pkt);
      auto it = half_open_.find(key);
      if (it == half_open_.end()) return;  // no handshake in progress
      if (pkt.ack != it->second.server_isn) {
        ++bad_acks_;
        return;
      }
      // Promote to a real connection: the server pushes the download back.
      const HalfOpen entry = it->second;
      half_open_.erase(it);
      ++accepted_;
      TcpParams p = config_.tcp;
      p.isn = entry.server_isn;
      p.total_bytes = config_.download_bytes;
      auto sender = std::make_unique<TcpSender>(net_, host_, entry.flow, entry.peer,
                                                entry.local_port, entry.peer_port, p);
      std::weak_ptr<bool> weak = alive_;
      sender->set_on_complete([this, weak](FlowId flow) {
        if (!weak.expired()) FinishConnection(flow);
      });
      TcpSender* sender_ptr = sender.get();
      accepted_conns_[entry.flow] =
          Accepted{entry.peer, entry.peer_port, entry.local_port};
      host_->AttachEndpoint(entry.flow, std::move(sender));
      sender_ptr->Start();
      return;
    }
    case PacketKind::kRst: {
      const std::uint64_t key = FlowKey(pkt);
      if (half_open_.erase(key) > 0) ++resets_;
      return;
    }
    default:
      return;  // stray FIN/data for an unknown flow: nothing to tear down
  }
}

void TcpListener::FinishConnection(FlowId flow) {
  auto it = accepted_conns_.find(flow);
  if (it == accepted_conns_.end()) return;
  // The completed sender stays attached (endpoints are never destroyed
  // mid-run — pending RTO closures hold raw pointers); the FIN tells the
  // client, and any on-path connection tracker, that the flow is over.
  Packet fin = ControlPacket(PacketKind::kFin, flow, host_->address(),
                             it->second.peer, it->second.local_port,
                             it->second.peer_port);
  host_->SendPacket(std::move(fin));
  accepted_conns_.erase(it);
}

void TcpListener::Sweep() {
  const SimTime now = net_->Now();
  for (auto it = half_open_.begin(); it != half_open_.end();) {
    if (now - it->second.created >= config_.half_open_timeout) {
      it = half_open_.erase(it);
    } else {
      ++it;
    }
  }
  std::weak_ptr<bool> weak = alive_;
  net_->events().ScheduleAfter(config_.sweep_period, [this, weak] {
    if (!weak.expired()) Sweep();
  });
}

// ---------------------------------------------------------------------------
// HandshakeClient
// ---------------------------------------------------------------------------

HandshakeClient::HandshakeClient(Network* net, Host* host, FlowId flow, Address server,
                                 std::uint16_t src_port, std::uint16_t dst_port,
                                 HandshakeParams params)
    : net_(net),
      host_(host),
      flow_(flow),
      server_(server),
      src_port_(src_port),
      dst_port_(dst_port),
      params_(params),
      client_isn_((HashKey(static_cast<std::uint64_t>(flow), 0xc11e) & 0xffffff) + 1) {}

HandshakeClient::~HandshakeClient() = default;

void HandshakeClient::Start() {
  running_ = true;
  SendSyn();
}

void HandshakeClient::Stop() {
  running_ = false;
  ++syn_epoch_;
}

void HandshakeClient::SendSyn() {
  Packet syn = ControlPacket(PacketKind::kSyn, flow_, host_->address(), server_,
                             src_port_, dst_port_);
  syn.seq = client_isn_;
  syn.sent_at = net_->Now();
  host_->SendPacket(std::move(syn));
  const std::uint64_t epoch = ++syn_epoch_;
  net_->events().ScheduleAfter(params_.syn_timeout,
                               [this, epoch] { OnSynTimeout(epoch); });
}

void HandshakeClient::OnSynTimeout(std::uint64_t epoch) {
  if (epoch != syn_epoch_ || !running_ || established_) return;
  if (syn_retries_ >= params_.max_syn_retries) {
    gave_up_ = true;
    running_ = false;
    return;
  }
  ++syn_retries_;
  SendSyn();
}

void HandshakeClient::OnPacket(const Packet& pkt) {
  switch (pkt.kind) {
    case PacketKind::kSynAck: {
      if (!established_) {
        if (pkt.ack != client_isn_) return;  // not an answer to our SYN
        peer_isn_ = pkt.seq;
        established_ = true;
        established_at_ = net_->Now();
        ++syn_epoch_;  // cancel the retransmission timer
        // The data phase is numbered from the peer's ISN — whatever the
        // SYN-ACK said it was.  Under an active SYN proxy that is the
        // cookie, and the server edge translates; the client cannot tell.
        // TcpReceiver takes ports in the *sender's* perspective (see
        // StartTcpFlow); the data sender here is the server, so its src
        // port is our dst port.  Getting this backwards flips the ports on
        // every data-phase ACK, which any 5-tuple connection tracker on
        // the path would key as a different (untracked) connection.
        receiver_ = std::make_unique<TcpReceiver>(net_, host_, flow_, server_,
                                                  dst_port_, src_port_,
                                                  params_.tcp.mss, peer_isn_);
      } else if (pkt.seq != peer_isn_) {
        return;  // stale duplicate from a different handshake attempt
      }
      Packet ack = ControlPacket(PacketKind::kAck, flow_, host_->address(), server_,
                                 src_port_, dst_port_);
      ack.seq = client_isn_;
      ack.ack = peer_isn_;
      host_->SendPacket(std::move(ack));
      return;
    }
    case PacketKind::kData:
      if (receiver_ != nullptr) receiver_->OnPacket(pkt);
      return;
    case PacketKind::kFin:
      closed_ = true;
      return;
    case PacketKind::kRst:
      closed_ = true;
      reset_ = true;
      running_ = false;
      return;
    default:
      return;
  }
}

}  // namespace fastflex::sim
