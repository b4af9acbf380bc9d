#include "attacks/generators.h"

namespace fastflex::attacks {

std::vector<FlowId> LaunchVolumetric(sim::Network& net, const VolumetricConfig& config) {
  std::vector<FlowId> flows;
  flows.reserve(config.bots.size());
  for (NodeId bot : config.bots) {
    sim::UdpParams params;
    params.rate_bps = config.rate_per_bot_bps;
    params.packet_bytes = config.packet_bytes;
    const FlowId f = net.StartUdpFlow(bot, config.victim, params, config.start);
    if (f != kInvalidFlow) flows.push_back(f);
  }
  return flows;
}

std::vector<FlowId> LaunchCoremelt(sim::Network& net, const CoremeltConfig& config) {
  std::vector<FlowId> flows;
  if (config.left_bots.empty() || config.right_bots.empty()) return flows;
  flows.reserve(static_cast<std::size_t>(config.total_flows));
  for (int f = 0; f < config.total_flows; ++f) {
    // Round-robin over pairs so every (left, right) combination carries
    // roughly the same number of flows — no destination stands out.
    const NodeId src =
        config.left_bots[static_cast<std::size_t>(f) % config.left_bots.size()];
    const NodeId dst =
        config.right_bots[static_cast<std::size_t>(f / static_cast<int>(config.left_bots.size())) %
                          config.right_bots.size()];
    sim::TcpParams params = config.flow_params;
    params.min_rto += (f * 13 % 97) * 5 * kMillisecond;  // de-synchronize
    const SimTime at =
        config.start + (static_cast<SimTime>(f) * config.ramp) /
                           std::max(1, config.total_flows);
    flows.push_back(net.StartTcpFlow(src, dst, params, at));
  }
  return flows;
}

std::vector<FlowId> LaunchPulsing(sim::Network& net, const PulsingConfig& config) {
  std::vector<FlowId> flows;
  flows.reserve(config.bots.size());
  for (NodeId bot : config.bots) {
    sim::UdpParams params;
    params.rate_bps = config.rate_per_bot_bps;
    params.packet_bytes = config.packet_bytes;
    params.on_duration = config.on_duration;
    params.off_duration = config.off_duration;
    const FlowId f = net.StartUdpFlow(bot, config.victim, params, config.start);
    if (f != kInvalidFlow) flows.push_back(f);
  }
  return flows;
}

}  // namespace fastflex::attacks
