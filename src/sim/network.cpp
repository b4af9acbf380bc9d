#include "sim/network.h"

#include <algorithm>
#include <cmath>

#include "sim/handshake.h"
#include "sim/host.h"
#include "sim/switch_node.h"
#include "sim/tcp.h"
#include "sim/udp.h"
#include "util/logging.h"

namespace fastflex::sim {

Network::Network(Topology topo, std::uint64_t seed)
    : topo_(std::move(topo)),
      rng_(seed),
      seed_(seed),
      link_rt_(topo_.NumLinks()),
      departures_(topo_.NumLinks()) {
  // Pre-size the event heap so steady traffic never reallocates mid-run.
  events_.Reserve(4096);
  nodes_.reserve(topo_.NumNodes());
  for (const auto& n : topo_.nodes()) {
    if (n.kind == NodeKind::kSwitch) {
      nodes_.push_back(std::make_unique<SwitchNode>(this, n.id));
    } else {
      nodes_.push_back(std::make_unique<Host>(this, n.id));
    }
  }
}

Network::~Network() = default;

SwitchNode* Network::switch_at(NodeId id) {
  return topo_.node(id).kind == NodeKind::kSwitch
             ? static_cast<SwitchNode*>(nodes_[static_cast<std::size_t>(id)].get())
             : nullptr;
}

Host* Network::host_at(NodeId id) {
  return topo_.node(id).kind == NodeKind::kHost
             ? static_cast<Host*>(nodes_[static_cast<std::size_t>(id)].get())
             : nullptr;
}

void Network::SendOnLink(LinkId link, Packet&& pkt) {
  auto& rt = link_rt_[static_cast<std::size_t>(link)];
  const auto& info = topo_.link(link);
  const SimTime now = Now();
  const std::uint32_t size = pkt.size_bytes;

  if (!rt.up) {
    ++rt.down_drops;
    if (telem_ != nullptr) hooks_.link_down_drops->Inc();
    return;
  }

  // Injected probabilistic faults (control-channel loss, corruption).  One
  // predictable branch on the fault-free hot path; rng draws happen only
  // while a fault window is open, so fault-free runs stay bit-identical to
  // their pre-fault traces.
  if (rt.fault_active) [[unlikely]] {
    if (rt.corrupt_prob > 0.0 && rng_.Bernoulli(rt.corrupt_prob)) {
      ++rt.corrupt_drops;
      return;
    }
    if (rt.probe_loss > 0.0 && pkt.kind == PacketKind::kProbe &&
        rng_.Bernoulli(rt.probe_loss)) {
      ++rt.probe_loss_drops;
      return;
    }
  }

  // Drop-tail admission on the (bytes-denominated) transmit queue.
  Settle(link);
  if (rt.queued_bytes + size > info.queue_bytes) {
    ++rt.dropped_packets;
    rt.dropped_bytes += size;
    if (telem_ != nullptr) {
      hooks_.link_drops->Inc();
      hooks_.drop_series->Add(now, 1.0);
    }
    return;
  }
  rt.queued_bytes += size;

  // Queue-spike watermark: one link.queue_spike event when a link's queue
  // first crosses half capacity, re-armed (in Settle) once it drains under
  // a quarter — hysteresis so a congested link logs a spike, not a flood.
  if (telem_ != nullptr && !rt.spike_latched && rt.queued_bytes * 2 > info.queue_bytes)
      [[unlikely]] {
    rt.spike_latched = true;
    telem_->trace().Event(now, "link.queue_spike",
                          {{"link", link},
                           {"queued", static_cast<std::int64_t>(rt.queued_bytes)},
                           {"capacity", static_cast<std::int64_t>(info.queue_bytes)}});
  }

  const SimTime start = std::max(now, rt.next_free);
  const auto tx_time = static_cast<SimTime>(
      std::ceil(static_cast<double>(size) * 8.0 / info.rate_bps * 1e9));
  rt.next_free = start + tx_time;
  const SimTime depart = rt.next_free;
  const SimTime arrive = depart + info.prop_delay;

  rt.tx_packets += 1;
  rt.tx_bytes += size;

  // The departure's key is taken now, before the arrival's: a reader
  // scheduled for the depart instant before this send still sees the
  // packet queued, and one scheduled after it sees the packet gone.
  departures_[static_cast<std::size_t>(link)].push_back(
      Departure{depart, events_.ReserveSeq(), size});
  // Park the packet in a pooled slot; the delivery closure carries only
  // the handle, so it stays within the callback's inline capture budget.
  // Zero allocations per hop once the pool and the event queue are warm.
  const NodeId to = info.to;
  const PacketPool::Handle h = pool_.Acquire();
  *pool_.Get(h) = std::move(pkt);
  events_.ScheduleAt(arrive, [this, to, link, h] {
    nodes_[static_cast<std::size_t>(to)]->Receive(std::move(*pool_.Get(h)), link);
    pool_.Release(h);
  });
}

void Network::DepartureFifo::push_back(const Departure& d) {
  if (size_ == buf_.size()) {
    std::vector<Departure> grown(std::max<std::size_t>(8, 2 * buf_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    }
    buf_ = std::move(grown);
    head_ = 0;
  }
  buf_[(head_ + size_) & (buf_.size() - 1)] = d;
  ++size_;
}

void Network::Settle(LinkId l) const {
  auto& fifo = departures_[static_cast<std::size_t>(l)];
  if (fifo.empty()) return;
  auto& rt = link_rt_[static_cast<std::size_t>(l)];
  const std::uint64_t capacity = topo_.link(l).queue_bytes;
  while (!fifo.empty() && events_.Reached(fifo.front().t, fifo.front().seq)) {
    const std::uint32_t size = fifo.front().size;
    fifo.pop_front();
    rt.queued_bytes -= size;
    // Utilization accounting happens at transmission completion, so a burst
    // sitting in the queue registers as sustained load, not a spike.
    rt.bytes_since_sample += size;
    if (rt.spike_latched && rt.queued_bytes * 4 < capacity) [[unlikely]] {
      rt.spike_latched = false;
    }
  }
}

void Network::EnableLinkSampling(SimTime period) {
  if (sample_period_ > 0) return;  // already enabled
  sample_period_ = period;
  last_sample_ = Now();
  events_.ScheduleAfter(period, [this, period] { SampleLinks(period); });
}

void Network::SampleLinks(SimTime period) {
  const SimTime now = Now();
  const double dt = ToSeconds(now - last_sample_);
  last_sample_ = now;
  if (dt > 0) {
    for (std::size_t l = 0; l < link_rt_.size(); ++l) {
      Settle(static_cast<LinkId>(l));
      auto& rt = link_rt_[l];
      const double inst =
          static_cast<double>(rt.bytes_since_sample) * 8.0 / (dt * topo_.link(static_cast<LinkId>(l)).rate_bps);
      rt.bytes_since_sample = 0;
      // Light smoothing keeps detectors from flapping on single-window noise
      // while still reacting within a few sample periods.
      rt.utilization = 0.6 * inst + 0.4 * rt.utilization;
    }
  }
  events_.ScheduleAfter(period, [this, period] { SampleLinks(period); });
}

FlowId Network::StartTcpFlow(NodeId src, NodeId dst, const TcpParams& params, SimTime at) {
  Host* s = host_at(src);
  Host* d = host_at(dst);
  if (s == nullptr || d == nullptr) return kInvalidFlow;
  const FlowId flow = next_flow_++;
  flow_stats_.emplace(flow, FlowStats{});
  flow_endpoints_.emplace(flow, FlowEndpoints{src, dst});
  const auto sport = static_cast<std::uint16_t>(10'000 + (flow % 50'000));
  const std::uint16_t dport = 80;
  d->AttachEndpoint(flow, std::make_unique<TcpReceiver>(this, d, flow, s->address(), sport,
                                                        dport, params.mss, params.isn));
  auto sender = std::make_unique<TcpSender>(this, s, flow, d->address(), sport, dport, params);
  TcpSender* sender_ptr = sender.get();
  s->AttachEndpoint(flow, std::move(sender));
  events_.ScheduleAt(at, [sender_ptr] { sender_ptr->Start(); });
  return flow;
}

FlowId Network::StartSynSession(NodeId client, NodeId server, const HandshakeParams& params,
                                SimTime at) {
  Host* c = host_at(client);
  Host* s = host_at(server);
  if (c == nullptr || s == nullptr) return kInvalidFlow;
  const FlowId flow = next_flow_++;
  flow_stats_.emplace(flow, FlowStats{});
  flow_endpoints_.emplace(flow, FlowEndpoints{client, server});
  const auto sport = static_cast<std::uint16_t>(10'000 + (flow % 50'000));
  const std::uint16_t dport = 80;
  auto ep = std::make_unique<HandshakeClient>(this, c, flow, s->address(), sport, dport,
                                              params);
  HandshakeClient* ep_ptr = ep.get();
  c->AttachEndpoint(flow, std::move(ep));
  events_.ScheduleAt(at, [ep_ptr] { ep_ptr->Start(); });
  return flow;
}

FlowId Network::StartUdpFlow(NodeId src, NodeId dst, const UdpParams& params, SimTime at) {
  Host* s = host_at(src);
  Host* d = host_at(dst);
  if (s == nullptr || d == nullptr) return kInvalidFlow;
  const FlowId flow = next_flow_++;
  flow_stats_.emplace(flow, FlowStats{});
  flow_endpoints_.emplace(flow, FlowEndpoints{src, dst});
  const auto sport = static_cast<std::uint16_t>(10'000 + (flow % 50'000));
  const std::uint16_t dport = 53;
  d->AttachEndpoint(flow, std::make_unique<UdpSink>(this, flow));
  auto sender = std::make_unique<UdpSender>(this, s, flow, d->address(), sport, dport, params);
  UdpSender* sender_ptr = sender.get();
  s->AttachEndpoint(flow, std::move(sender));
  events_.ScheduleAt(at, [sender_ptr] { sender_ptr->Start(); });
  return flow;
}

void Network::StopFlow(FlowId flow) {
  auto ep_it = flow_endpoints_.find(flow);
  if (ep_it == flow_endpoints_.end()) return;
  for (NodeId n : {ep_it->second.src, ep_it->second.dst}) {
    Host* h = host_at(n);
    if (h == nullptr) continue;
    if (sim::FlowEndpoint* ep = h->endpoint(flow)) ep->Stop();
  }
  flow_stats_[flow].stopped = true;
}

NodeId Network::HostByAddress(Address a) const {
  const NodeId n = topo_.NodeByAddress(a);
  // A switch's router address names a node, but not a host.
  return n != kInvalidNode && topo_.node(n).kind == NodeKind::kHost ? n : kInvalidNode;
}

void Network::RecordGoodput(FlowId flow, std::uint64_t bytes) {
  auto& st = flow_stats_[flow];
  st.delivered_bytes += bytes;
  st.goodput.Add(Now(), static_cast<double>(bytes));
}

void Network::RecordRetransmit(FlowId flow) {
  ++flow_stats_[flow].retransmits;
  if (telem_ != nullptr) {
    hooks_.retransmits->Inc();
    hooks_.retx_series->Add(Now(), 1.0);
  }
}

void Network::SetTelemetry(telemetry::Recorder* recorder) {
  telem_ = recorder;
  prof_ = recorder != nullptr ? recorder->prof().enabled_self() : nullptr;
  events_.set_profiler(prof_);
  if (recorder == nullptr) {
    hooks_ = TelemetryHooks{};
    return;
  }
  auto& m = recorder->metrics();
  hooks_.link_drops = &m.GetCounter("net.link.drop_tail_drops");
  hooks_.link_down_drops = &m.GetCounter("net.link.down_drops");
  hooks_.drop_series = &m.GetSeries("net.link.drops", 100 * kMillisecond);
  hooks_.retransmits = &m.GetCounter("net.tcp.retransmits");
  hooks_.retx_series = &m.GetSeries("net.tcp.retransmits", 100 * kMillisecond);
  hooks_.cwnd_on_loss = &m.GetSummary("net.tcp.cwnd_on_loss");
  hooks_.policy_drops = &m.GetCounter("net.policy_drops");
}

void Network::CollectTelemetry(telemetry::Recorder& recorder) const {
  auto& m = recorder.metrics();
  for (std::size_t l = 0; l < link_rt_.size(); ++l) {
    Settle(static_cast<LinkId>(l));
    const auto& rt = link_rt_[l];
    // Quiet links stay out of the artifact so it scales with activity, not
    // with topology size.
    if (rt.tx_packets == 0 && rt.dropped_packets == 0 && rt.down_drops == 0) continue;
    const std::string p = telemetry::Join("link", l);
    m.GetCounter(p + ".tx_packets").Set(rt.tx_packets);
    m.GetCounter(p + ".tx_bytes").Set(rt.tx_bytes);
    m.GetCounter(p + ".dropped_packets").Set(rt.dropped_packets);
    m.GetCounter(p + ".dropped_bytes").Set(rt.dropped_bytes);
    m.GetCounter(p + ".down_drops").Set(rt.down_drops);
    // Injected-fault drop counters appear only on affected links so
    // fault-free artifacts keep their exact pre-fault key set.
    if (rt.probe_loss_drops > 0) m.GetCounter(p + ".probe_loss_drops").Set(rt.probe_loss_drops);
    if (rt.corrupt_drops > 0) m.GetCounter(p + ".corrupt_drops").Set(rt.corrupt_drops);
    m.GetGauge(p + ".utilization").Set(rt.utilization);
    m.GetGauge(p + ".queued_bytes").Set(static_cast<double>(rt.queued_bytes));
  }
  for (const auto& node : nodes_) {
    node->CollectTelemetry(recorder);
  }
  std::uint64_t delivered = 0, retx = 0;
  std::size_t completed = 0;
  for (const auto& [flow, st] : flow_stats_) {
    delivered += st.delivered_bytes;
    retx += st.retransmits;
    if (st.completed) ++completed;
  }
  m.GetCounter("flows.total").Set(flow_stats_.size());
  m.GetCounter("flows.completed").Set(completed);
  m.GetCounter("flows.delivered_bytes").Set(delivered);
  m.GetCounter("flows.retransmits").Set(retx);
  m.GetCounter("events.processed").Set(TotalEventsProcessed());
  m.GetGauge("sim.now_seconds").Set(ToSeconds(Now()));
  // Packet-arena health: slots == high-water in-flight packets; recycled /
  // acquires == how hard the freelist works.  Deterministic per seed.
  m.GetCounter("net.pool.acquires").Set(pool_.acquires());
  m.GetCounter("net.pool.recycled").Set(pool_.recycled());
  m.GetCounter("net.pool.slots").Set(pool_.slots());
  // High-water marks that were previously internal-only: how big the event
  // heap got, and how many in-flight packets the arena peaked at.  Gauges
  // because they are levels, not accumulations.  Deterministic per seed.
  m.GetGauge("sim.event_queue.peak_pending").Set(static_cast<double>(events_.peak_pending()));
  m.GetGauge("net.pool.hwm_slots").Set(static_cast<double>(pool_.slots()));
}

double Network::AggregateGoodputBps(const std::vector<FlowId>& flows, SimTime t) const {
  double total = 0.0;
  for (FlowId f : flows) {
    auto it = flow_stats_.find(f);
    if (it == flow_stats_.end()) continue;
    const auto& series = it->second.goodput;
    const auto bin = static_cast<std::size_t>(t / series.bin_width());
    total += series.Rate(bin) * 8.0;
  }
  return total;
}

}  // namespace fastflex::sim
