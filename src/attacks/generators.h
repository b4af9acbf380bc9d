// Volumetric, pulsing, and mixed-vector attack generators.
//
// These are thin orchestration helpers over the simulator's UDP flows: a
// volumetric DDoS is a set of constant-rate floods from many bots to one
// victim; a pulsing attack gates the same floods with an on/off duty cycle
// (Luo & Chang's pulsing DoS, cited as [54]); a mixed-vector attack runs a
// volumetric flood in one region while a Crossfire LFA runs in another.
#pragma once

#include <vector>

#include "sim/network.h"

namespace fastflex::attacks {

struct VolumetricConfig {
  std::vector<NodeId> bots;
  NodeId victim = kInvalidNode;
  double rate_per_bot_bps = 10e6;
  std::uint32_t packet_bytes = 1000;
  SimTime start = 5 * kSecond;
};

/// Launches the flood; returns the attack flow ids.
std::vector<FlowId> LaunchVolumetric(sim::Network& net, const VolumetricConfig& config);

struct PulsingConfig {
  std::vector<NodeId> bots;
  NodeId victim = kInvalidNode;
  double rate_per_bot_bps = 20e6;
  std::uint32_t packet_bytes = 1000;
  SimTime on_duration = 500 * kMillisecond;
  SimTime off_duration = 1500 * kMillisecond;
  SimTime start = 5 * kSecond;
};

std::vector<FlowId> LaunchPulsing(sim::Network& net, const PulsingConfig& config);

/// Coremelt attack (Studer & Perrig, cited as [74]): bots on both sides of
/// the network core exchange low-rate TCP flows with EACH OTHER, pairwise —
/// the traffic is wanted by its destinations and converges on no victim,
/// yet the pair paths all cross the core links and melt them.
struct CoremeltConfig {
  std::vector<NodeId> left_bots;   // one side of the targeted core
  std::vector<NodeId> right_bots;  // the other side (e.g. compromised servers)
  int total_flows = 150;
  sim::TcpParams flow_params{.mss = 1000, .init_cwnd = 1.0, .max_cwnd = 2.0};
  SimTime start = 5 * kSecond;
  SimTime ramp = kSecond;  // stagger flow starts across this interval
};

std::vector<FlowId> LaunchCoremelt(sim::Network& net, const CoremeltConfig& config);

}  // namespace fastflex::attacks
