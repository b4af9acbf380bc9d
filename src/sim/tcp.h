// TCP-like transport: AIMD with slow start, fast retransmit on three
// duplicate ACKs, and exponential-backoff RTO.
//
// This is deliberately a *congestion-behavior* model, not a byte-accurate
// TCP: segments are unit-numbered, ACKs are cumulative per segment.  It is
// faithful where the paper needs it — attack flows depress victim goodput
// through real queue buildup and loss, low-rate "legitimate-looking" attack
// flows exist (max_cwnd caps), and detectors can observe per-flow state
// (duration, rate, retransmissions) the way Dapper/Blink-style data-plane
// monitors do.
#pragma once

#include <cstdint>
#include <functional>
#include <set>

#include "sim/host.h"
#include "sim/network.h"
#include "sim/packet.h"

namespace fastflex::sim {

class TcpSender : public FlowEndpoint {
 public:
  TcpSender(Network* net, Host* host, FlowId flow, Address peer, std::uint16_t src_port,
            std::uint16_t dst_port, const TcpParams& params);

  void Start() override;
  void Stop() override;
  void OnPacket(const Packet& pkt) override;  // ACKs

  double cwnd() const { return cwnd_; }
  double ssthresh() const { return ssthresh_; }
  std::uint64_t snd_una() const { return snd_una_; }
  std::uint64_t next_seq() const { return next_seq_; }
  bool in_recovery() const { return in_recovery_; }
  SimTime rto() const { return rto_; }
  double srtt_seconds() const { return srtt_; }
  std::uint64_t retransmits() const { return retransmits_; }
  bool completed() const { return completed_; }

  /// Invoked once when the final segment is acknowledged.  The callback
  /// runs inside OnPacket — a listener using it to tear the connection down
  /// must defer endpoint destruction to a fresh event.
  void set_on_complete(std::function<void(FlowId)> fn) { on_complete_ = std::move(fn); }

 private:
  void TrySend();
  void SendSegment(std::uint64_t seq, bool is_retx);
  void ArmRto();
  void ScheduleTimer(SimTime t, std::uint64_t seq);
  void OnTimer(std::uint64_t seq);
  void OnRto();
  void OnLossEvent();
  void RecoveryRetransmit(int budget);
  bool SackReceived(std::uint64_t seq) const;

  Network* net_;
  Host* host_;
  FlowId flow_;
  Address peer_;
  std::uint16_t src_port_, dst_port_;
  TcpParams params_;
  std::uint64_t total_segments_ = 0;  // 0 = unbounded

  double cwnd_;
  double ssthresh_ = 1e9;
  std::uint64_t next_seq_;  // next new segment to send (isn + 1 at start)
  std::uint64_t snd_una_;   // lowest unacknowledged segment
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;

  // Recovery scoreboard: the next segment the recovery sweep will consider
  // retransmitting, and the receiver's SACK view (bitmap of segments
  // received in (snd_una_-1, snd_una_+63]).
  std::uint64_t retx_frontier_ = 0;
  std::uint64_t sack_bitmap_ = 0;
  std::uint64_t sack_base_ = 0;  // ack value the bitmap is anchored to

  // RTT estimation (RFC 6298 shape).
  double srtt_ = 0.0, rttvar_ = 0.0;
  SimTime rto_;
  bool retx_outstanding_ = false;

  // Retransmission timer.  ArmRto records the armed key: Now() + rto_ and
  // a reserved event seq.  The sender keeps one timer event in the queue;
  // a timer that fires before the armed key moves itself there, so the
  // timeout runs at exactly the (t, seq) place an event scheduled by the
  // latest ArmRto would have had.  A second event is queued only when a
  // shrunken rto_ arms a key earlier than the pending timer's; the later
  // one then fires as a no-op.  Stop() and completion disarm.  The timer
  // event holds `this`, so endpoints are never destroyed mid-run.
  bool rto_armed_ = false;
  SimTime rto_at_ = 0;
  std::uint64_t rto_seq_ = 0;
  // The live timer event's key; kNoEvent when none is pending.
  SimTime timer_at_ = EventQueue::kNoEvent;
  std::uint64_t timer_seq_ = 0;

  bool running_ = false;
  bool completed_ = false;
  std::uint64_t retransmits_ = 0;
  std::function<void(FlowId)> on_complete_;
};

class TcpReceiver : public FlowEndpoint {
 public:
  TcpReceiver(Network* net, Host* host, FlowId flow, Address peer, std::uint16_t src_port,
              std::uint16_t dst_port, std::uint32_t mss, std::uint64_t isn = 0);

  void OnPacket(const Packet& pkt) override;  // data segments

  std::uint64_t delivered_segments() const { return rcv_next_ - 1 - isn_; }

 private:
  Network* net_;
  Host* host_;
  FlowId flow_;
  Address peer_;
  std::uint16_t src_port_, dst_port_;
  std::uint32_t mss_;
  std::uint64_t isn_;                     // numbering starts at isn_ + 1
  std::uint64_t rcv_next_;                // next expected segment
  std::set<std::uint64_t> out_of_order_;  // buffered future segments
};

}  // namespace fastflex::sim
