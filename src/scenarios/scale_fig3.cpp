#include "scenarios/scale_fig3.h"

#include <memory>
#include <string>

#include "control/routes.h"
#include "sim/network.h"
#include "sim/topology.h"

namespace fastflex::scenarios {

using sim::NodeKind;

ScaleFig3Result RunScaleFig3(const ScaleFig3Options& options) {
  const int R = options.regions;
  sim::Topology topo;

  std::vector<NodeId> agg(static_cast<std::size_t>(R));
  std::vector<NodeId> edge(static_cast<std::size_t>(R));
  std::vector<NodeId> server(static_cast<std::size_t>(R));
  std::vector<std::vector<NodeId>> clients(static_cast<std::size_t>(R));

  const double access_bps = 100e6;
  const double ring_bps = 400e6;
  const SimTime access_delay = 200 * kMicrosecond;
  const std::uint32_t queue_bytes = 200'000;

  for (int r = 0; r < R; ++r) {
    const auto i = static_cast<std::size_t>(r);
    const std::string tag = std::to_string(r);
    agg[i] = topo.AddNode(NodeKind::kSwitch, "agg" + tag);
    edge[i] = topo.AddNode(NodeKind::kSwitch, "edge" + tag);
    topo.AddDuplexLink(agg[i], edge[i], access_bps, access_delay, queue_bytes);
    server[i] = topo.AddNode(NodeKind::kHost, "srv" + tag);
    topo.AddDuplexLink(agg[i], server[i], access_bps, access_delay, queue_bytes);
    for (int c = 0; c < options.clients_per_region; ++c) {
      clients[i].push_back(
          topo.AddNode(NodeKind::kHost, "cl" + tag + "_" + std::to_string(c)));
      topo.AddDuplexLink(edge[i], clients[i].back(), access_bps, access_delay,
                         queue_bytes);
    }
  }
  // The ring: the only links between regions.
  for (int r = 0; r < R; ++r) {
    topo.AddDuplexLink(agg[static_cast<std::size_t>(r)],
                       agg[static_cast<std::size_t>((r + 1) % R)], ring_bps,
                       options.region_delay, queue_bytes);
  }

  sim::Network net(topo, options.seed);
  if (options.recorder != nullptr) net.SetTelemetry(options.recorder);
  control::InstallDstRoutes(net);

  ScaleFig3Result result;
  std::vector<FlowId> flows;
  for (int r = 0; r < R; ++r) {
    const auto i = static_cast<std::size_t>(r);
    const auto across = static_cast<std::size_t>((r + R / 2) % R);
    const auto next = static_cast<std::size_t>((r + 1) % R);
    int c = 0;
    for (NodeId cl : clients[i]) {
      sim::TcpParams tp;
      tp.mss = 1000;
      tp.init_cwnd = 2.0;
      // Application-bounded demand; RTT across the ring is a few ms.
      tp.max_cwnd = options.demand_bps * 0.01 / (8.0 * tp.mss);
      tp.min_rto = 200 * kMillisecond + ((r * 7 + c * 17) % 60) * kMillisecond;
      const SimTime at = 100 * kMillisecond +
                         static_cast<SimTime>(r * 13 + c * 31) * kMillisecond;
      flows.push_back(net.StartTcpFlow(cl, server[across], tp, at));

      sim::UdpParams up;
      up.rate_bps = options.udp_bps;
      up.packet_bytes = 500;
      net.StartUdpFlow(cl, server[next], up, at + 50 * kMillisecond);
      ++c;
    }
  }
  result.flows = static_cast<int>(flows.size());

  net.RunUntil(options.duration);

  result.events_processed = net.TotalEventsProcessed();
  for (FlowId f : flows) result.delivered_bytes += net.flow_stats(f).delivered_bytes;

  if (options.recorder != nullptr) {
    telemetry::Recorder& rec = *options.recorder;
    net.CollectTelemetry(rec);
    auto& m = rec.metrics();
    m.GetCounter("scale.flows").Set(static_cast<std::uint64_t>(result.flows));
    m.GetCounter("scale.delivered_bytes").Set(result.delivered_bytes);
    net.SetTelemetry(nullptr);
  }
  return result;
}

}  // namespace fastflex::scenarios
