// The paper bench: every figure and ablation of the evaluation, in one run,
// written to one artifact, BENCH_paper.json (schema fastflex.bench_paper.v1).
// One block per DESIGN.md §3 row:
//
//   fig3    rolling LFA, 120 s: none at seed 1, SDN and FastFlex at seeds
//           1-3, the per-second series, and the INT diagnosis read from the
//           instrumented FastFlex seed-1 run;
//   fig1a   per-booster module and resource table;
//   fig1b   merged dataflow graph: sharing savings, clusters, pairwise savings;
//   fig1c   placement, 3 topologies x 3 switch capacity profiles;
//   fig1d   repurposing at runtime: blackout survival, state transfer under
//           loss with and without FEC, the full repurpose sequence;
//   fig2    mode-change activation latency per fleet, and the LFA case-study
//           timeline read from the fig3 FastFlex seed-1 run;
//   a1      reroute suspects only vs everything (60 s, seeds 1-3);
//   a2      blinding the attacker: obfuscation and dropping on/off, plus
//           reroute alone without sticky binding (90 s);
//   m3      mixed-vector co-existing modes, distributed rate limiting,
//           Coremelt with and without the aggregate signature;
//   timing  wall seconds per block.
//
// Every claim threshold lives in bench/baselines/gates.json, which
// tools/bench_diff.py checks against this artifact.  The binary itself
// exits non-zero only when it cannot write the artifact.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analyzer/analyzer.h"
#include "attacks/crossfire.h"
#include "attacks/generators.h"
#include "boosters/rate_limiter.h"
#include "boosters/registry.h"
#include "boosters/shared_ppms.h"
#include "control/orchestrator.h"
#include "control/routes.h"
#include "dataplane/pipeline.h"
#include "runtime/mode_protocol.h"
#include "runtime/scaling.h"
#include "scenarios/fattree.h"
#include "scenarios/fig3.h"
#include "scenarios/hotnets.h"
#include "scheduler/placement.h"
#include "sim/network.h"
#include "sim/switch_node.h"
#include "telemetry/telemetry.h"

namespace {

using namespace fastflex;
using scenarios::DefenseKind;
using scenarios::Fig3Options;
using scenarios::Fig3Result;

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// A JSON value kept in insertion order: a rendered leaf, an array or an
// object.  Doubles print with %.17g, so every number round-trips exactly.
class Json {
 public:
  Json() = default;  // an empty object
  Json(double v) : leaf_(Num(v)) {}
  Json(int v) : leaf_(std::to_string(v)) {}
  Json(std::uint64_t v) : leaf_(std::to_string(v)) {}
  Json(bool v) : leaf_(v ? "true" : "false") {}
  Json(const std::string& s) : leaf_("\"" + s + "\"") {}
  Json(const char* s) : Json(std::string(s)) {}

  static Json Array() {
    Json a;
    a.array_ = true;
    return a;
  }
  template <typename T>
  static Json Array(const std::vector<T>& values) {
    Json a = Array();
    for (const auto& v : values) a.Push(v);
    return a;
  }

  Json& Set(const std::string& key, Json value) {
    items_.emplace_back(key, std::move(value));
    return *this;
  }
  Json& Push(Json value) { return Set("", std::move(value)); }

  std::string Dump(int indent = 0) const {
    if (!leaf_.empty()) return leaf_;
    const char open = array_ ? '[' : '{';
    const char close = array_ ? ']' : '}';
    if (items_.empty()) return std::string{open, close};
    const bool flat = std::all_of(items_.begin(), items_.end(),
                                  [](const auto& kv) { return !kv.second.leaf_.empty(); });
    if (array_ && flat) {  // a number series stays on one line
      std::string out(1, open);
      for (std::size_t i = 0; i < items_.size(); ++i) {
        out += (i == 0 ? "" : ", ") + items_[i].second.leaf_;
      }
      return out + close;
    }
    const std::string pad(static_cast<std::size_t>(indent + 2), ' ');
    std::string out(1, open);
    for (std::size_t i = 0; i < items_.size(); ++i) {
      out += (i == 0 ? "\n" : ",\n") + pad;
      if (!array_) out += "\"" + items_[i].first + "\": ";
      out += items_[i].second.Dump(indent + 2);
    }
    return out + "\n" + std::string(static_cast<std::size_t>(indent), ' ') + close;
  }

 private:
  std::string leaf_;  // set for leaves only
  bool array_ = false;
  std::vector<std::pair<std::string, Json>> items_;  // keys unused in arrays
};

Json WithDemand(Json j, const dataplane::ResourceVector& d) {
  j.Set("stages", d.stages)
      .Set("sram_mb", d.sram_mb)
      .Set("tcam_entries", d.tcam_entries)
      .Set("alus", d.alus);
  return j;
}

const char* RoleName(analyzer::PpmRole role) {
  switch (role) {
    case analyzer::PpmRole::kDetection: return "detect";
    case analyzer::PpmRole::kMitigation: return "mitigate";
    case analyzer::PpmRole::kSupport: break;
  }
  return "support";
}

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// ---------------------------------------------------------------- fig3, a1, a2

Fig3Options Fig3Run(DefenseKind defense, std::uint64_t seed, SimTime duration) {
  Fig3Options opt;
  opt.defense = defense;
  opt.seed = seed;
  opt.duration = duration;
  return opt;
}

Json RunJson(const Fig3Result& r) {
  std::vector<double> roll_at_s;
  for (const auto& roll : r.rolls) roll_at_s.push_back(ToSeconds(roll.at));
  Json j;
  j.Set("mean", r.mean_during_attack)
      .Set("min", r.min_during_attack)
      .Set("rolls", r.rolls.size())
      .Set("roll_at_s", Json::Array(roll_at_s))
      .Set("stable_goodput_mbps", r.stable_goodput_bps / 1e6)
      .Set("first_alarm_s", ToSeconds(r.first_alarm))
      .Set("alarm_to_modes_ms",
           r.first_alarm > 0 ? ToMillis(r.modes_active_at - r.first_alarm) : 0.0)
      .Set("sdn_reconfigurations", r.sdn_reconfigurations)
      .Set("policy_drops", r.policy_drops);
  return j;
}

// The INT hop-level diagnosis of an instrumented FastFlex run: coverage,
// the in-band alarm-to-flip latency, and per attack epoch (between rolls)
// the hop where queueing concentrated.
Json IntDiagnosis(const telemetry::IntCollector& ic, const Fig3Result& r,
                  SimTime attack_at) {
  Json hot_hops = Json::Array();
  std::vector<SimTime> bounds{attack_at};
  for (const auto& roll : r.rolls) bounds.push_back(roll.at);
  bounds.push_back(static_cast<SimTime>(r.normalized.size()) * kSecond);
  for (std::size_t e = 0; e + 1 < bounds.size(); ++e) {
    const auto hot = ic.HottestHop(bounds[e], bounds[e + 1]);
    if (!hot) continue;
    hot_hops.Push(Json()
                      .Set("epoch", e)
                      .Set("from_s", ToSeconds(bounds[e]))
                      .Set("to_s", ToSeconds(bounds[e + 1]))
                      .Set("switch", hot->switch_id)
                      .Set("max_queue_kb", static_cast<double>(hot->max_queue_bytes) / 1e3));
  }
  const bool flipped = r.int_reroute_seen_at > 0 && r.first_alarm > 0;
  return Json()
      .Set("journeys", ic.journeys())
      .Set("records", ic.records())
      .Set("truncated_journeys", ic.truncated_journeys())
      .Set("path_churn", ic.path_churn_total())
      .Set("alarm_s", ToSeconds(r.first_alarm))
      .Set("reroute_seen_s", ToSeconds(r.int_reroute_seen_at))
      .Set("alarm_to_flip_ms",
           flipped ? ToMillis(r.int_reroute_seen_at - r.first_alarm) : 0.0)
      .Set("hot_hops", std::move(hot_hops));
}

/// Fills `ff_seed1` with the FastFlex seed-1 run, whose timeline fig2 reads.
Json Fig3Block(Fig3Result& ff_seed1) {
  const SimTime duration = 120 * kSecond;
  const SimTime attack_at = Fig3Options{}.attack_at;
  Json none;
  Json sdn;
  Json ff;
  double sdn_worst = 1.0;
  double ff_worst = 1.0;
  double worst_gap = 1.0;
  telemetry::Recorder rec;  // instruments the FastFlex seed-1 run
  const Fig3Result none1 = RunFig3(Fig3Run(DefenseKind::kNone, 1, duration));
  none.Set("seed1", RunJson(none1));
  Fig3Result sdn1;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::string key = "seed" + std::to_string(seed);
    const Fig3Result s = RunFig3(Fig3Run(DefenseKind::kBaselineSdn, seed, duration));
    Fig3Options ff_opt = Fig3Run(DefenseKind::kFastFlex, seed, duration);
    if (seed == 1) ff_opt.recorder = &rec;
    const Fig3Result f = RunFig3(ff_opt);
    sdn.Set(key, RunJson(s));
    ff.Set(key, RunJson(f));
    sdn_worst = std::min(sdn_worst, s.mean_during_attack);
    ff_worst = std::min(ff_worst, f.mean_during_attack);
    worst_gap = std::min(worst_gap, f.mean_during_attack - s.mean_during_attack);
    if (seed == 1) {
      sdn1 = s;
      ff_seed1 = f;
    }
  }
  sdn.Set("worst_mean", sdn_worst);
  ff.Set("worst_mean", ff_worst);
  std::printf("fig3   none %.1f%% | SDN worst %.1f%% | FastFlex worst %.1f%% | gap %.3f\n",
              100 * none1.mean_during_attack, 100 * sdn_worst, 100 * ff_worst, worst_gap);
  return Json()
      .Set("duration_s", ToSeconds(duration))
      .Set("attack_at_s", ToSeconds(attack_at))
      .Set("none", std::move(none))
      .Set("sdn", std::move(sdn))
      .Set("fastflex", std::move(ff))
      .Set("worst_gap", worst_gap)
      .Set("series", Json()
                         .Set("sdn", Json::Array(sdn1.normalized))
                         .Set("fastflex", Json::Array(ff_seed1.normalized)))
      .Set("int", IntDiagnosis(rec.int_collector(), ff_seed1, attack_at));
}

Json A1Block() {
  struct Arm {
    const char* key;
    bool reroute_all;
  };
  Json block;
  block.Set("duration_s", 60.0);
  double avg_mean[2] = {0, 0};
  const Arm arms[] = {{"suspects_only", false}, {"reroute_all", true}};
  for (int a = 0; a < 2; ++a) {
    Json arm;
    double mean_sum = 0;
    double min_sum = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Fig3Options opt = Fig3Run(DefenseKind::kFastFlex, seed, 60 * kSecond);
      opt.reroute_all = arms[a].reroute_all;
      const Fig3Result r = RunFig3(opt);
      arm.Set("seed" + std::to_string(seed), RunJson(r));
      mean_sum += r.mean_during_attack;
      min_sum += r.min_during_attack;
    }
    avg_mean[a] = mean_sum / 3;
    arm.Set("avg_mean", mean_sum / 3).Set("avg_min", min_sum / 3);
    block.Set(arms[a].key, std::move(arm));
  }
  block.Set("suspects_minus_reroute_all", avg_mean[0] - avg_mean[1]);
  std::printf("a1     suspects-only %.1f%% vs reroute-all %.1f%% (3-seed means)\n",
              100 * avg_mean[0], 100 * avg_mean[1]);
  return block;
}

Json A2Block() {
  struct Variant {
    const char* key;
    bool obfuscate;
    bool drop;
    bool sticky;
  };
  const Variant variants[] = {
      {"full", true, true, true},
      {"obfuscate_only", true, false, true},
      {"drop_only", false, true, true},
      {"reroute_alone", false, false, true},
      // Without flowlet-sticky binding, best-path rerouting herds the
      // suspect aggregate onto one detour and collapses it.
      {"reroute_alone_herding", false, false, false},
  };
  Json block;
  block.Set("duration_s", 90.0);
  double sticky_mean = 0;
  double herding_mean = 0;
  for (const auto& v : variants) {
    Fig3Options opt = Fig3Run(DefenseKind::kFastFlex, 1, 90 * kSecond);
    opt.enable_obfuscation = v.obfuscate;
    opt.enable_dropping = v.drop;
    opt.sticky_reroute = v.sticky;
    const Fig3Result r = RunFig3(opt);
    if (!v.obfuscate && !v.drop) {  // the reroute-alone pair, sticky or not
      (v.sticky ? sticky_mean : herding_mean) = r.mean_during_attack;
    }
    std::printf("a2     %-22s mean %5.1f%%  rolls %2zu  drops %llu\n", v.key,
                100 * r.mean_during_attack, r.rolls.size(),
                static_cast<unsigned long long>(r.policy_drops));
    block.Set(v.key, RunJson(r));
  }
  return block.Set("herding_gap", sticky_mean - herding_mean);
}

// ---------------------------------------------------------------- fig1a-c

Json Fig1aBlock(const std::vector<analyzer::BoosterSpec>& specs) {
  Json block;
  for (const auto& spec : specs) {
    Json ppms = Json::Array();
    for (const auto& ppm : spec.ppms) {
      ppms.Push(WithDemand(Json().Set("name", ppm.name).Set("role", RoleName(ppm.role)),
                           ppm.demand));
    }
    Json edges = Json::Array();
    for (const auto& e : spec.edges) {
      edges.Push(Json().Set("from", e.from).Set("to", e.to).Set("weight", e.weight));
    }
    block.Set(spec.name, WithDemand(Json().Set("modules", spec.ppms.size()),
                                    spec.TotalDemand())
                             .Set("ppms", std::move(ppms))
                             .Set("edges", std::move(edges)));
  }
  return block;
}

Json Fig1bBlock(const std::vector<analyzer::BoosterSpec>& specs) {
  const auto merged = analyzer::Merge(specs);
  const auto savings = analyzer::ComputeSavings(specs, merged);
  const auto cap = dataplane::DefaultSwitchCapacity();
  Json modules = Json::Array();
  for (const auto& m : merged.ppms) {
    modules.Push(WithDemand(Json().Set("name", m.descriptor.name), m.descriptor.demand)
                     .Set("used_by", Json::Array(m.used_by)));
  }
  const auto cluster_graph = analyzer::ClusterGraph(merged, cap);
  Json clusters = Json::Array();
  for (const auto& c : cluster_graph) {
    clusters.Push(WithDemand(Json().Set("modules", c.members.size()), c.demand)
                      .Set("role", RoleName(c.role)));
  }
  // Pairwise co-deployment: what each booster pair saves when merged.
  Json pairwise = Json::Array();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t j = i + 1; j < specs.size(); ++j) {
      const std::vector<analyzer::BoosterSpec> pair{specs[i], specs[j]};
      const auto s = analyzer::ComputeSavings(pair, analyzer::Merge(pair));
      pairwise.Push(Json()
                        .Set("a", specs[i].name)
                        .Set("b", specs[j].name)
                        .Set("stages_saved", s.demand_before.stages - s.demand_after.stages)
                        .Set("sram_mb_saved",
                             s.demand_before.sram_mb - s.demand_after.sram_mb));
    }
  }
  std::printf("fig1b  modules %zu -> %zu, stages %.1f -> %.1f\n", savings.modules_before,
              savings.modules_after, savings.demand_before.stages,
              savings.demand_after.stages);
  return Json()
      .Set("modules_before", savings.modules_before)
      .Set("modules_after", savings.modules_after)
      .Set("shared_modules", savings.shared_modules)
      .Set("before", WithDemand(Json(), savings.demand_before))
      .Set("after", WithDemand(Json(), savings.demand_after))
      .Set("switch_capacity", WithDemand(Json(), cap))
      .Set("fits_one_switch", savings.demand_after.FitsIn(cap))
      .Set("merged", std::move(modules))
      .Set("clusters", std::move(clusters))
      .Set("cut_weight", analyzer::CutWeight(merged, cluster_graph))
      .Set("pairwise", std::move(pairwise));
}

Json Fig1cBlock(const std::vector<analyzer::BoosterSpec>& specs) {
  struct Workload {
    std::string key;
    sim::Topology topo;
    std::vector<sim::Path> paths;
  };
  std::vector<Workload> workloads;
  {
    auto h = scenarios::BuildHotnetsTopology();
    Workload w{"hotnets_fig2", {}, {}};
    for (NodeId c : h.clients) w.paths.push_back(h.topo.ShortestPath(c, h.victim));
    w.topo = std::move(h.topo);
    workloads.push_back(std::move(w));
  }
  for (int k : {4, 6}) {
    auto ft = scenarios::BuildFatTree(k);
    Workload w{"fattree_k" + std::to_string(k), {}, {}};
    for (std::size_t i = 1; i < ft.hosts.size(); ++i) {
      w.paths.push_back(ft.topo.ShortestPath(ft.hosts[i], ft.hosts[0]));
    }
    w.topo = std::move(ft.topo);
    workloads.push_back(std::move(w));
  }
  scheduler::PlacementOptions single;
  single.switch_capacity = dataplane::ResourceVector{12, 60, 3072, 32};
  scheduler::PlacementOptions multi;  // the default multi-pipe profile
  scheduler::PlacementOptions big;
  big.switch_capacity = dataplane::ResourceVector{48, 480, 24576, 192};
  const std::pair<const char*, scheduler::PlacementOptions> profiles[] = {
      {"single_pipe", single}, {"multi_pipe", multi}, {"multi_pipe_2x", big}};

  const auto merged = analyzer::Merge(specs);
  Json block;
  for (const auto& w : workloads) {
    Json row;
    for (const auto& [name, options] : profiles) {
      const auto clusters = analyzer::ClusterGraph(
          merged, options.switch_capacity - options.routing_reserve);
      const auto p = scheduler::PlaceClusters(w.topo, clusters, w.paths, options);
      row.Set(name, Json()
                        .Set("clusters", clusters.size())
                        .Set("instances", p.total_instances)
                        .Set("feasible", p.feasible)
                        .Set("path_coverage", p.detector_path_coverage)
                        .Set("mitigation_distance", p.mean_mitigation_distance));
    }
    block.Set(w.key, std::move(row));
  }
  return block;
}

// ---------------------------------------------------------------- fig1d

struct Triangle {
  std::unique_ptr<sim::Network> net;
  std::vector<NodeId> switches;
  std::vector<NodeId> hosts;
  std::vector<std::unique_ptr<dataplane::Pipeline>> pipelines;
  std::vector<std::shared_ptr<runtime::ModeProtocolPpm>> agents;
  std::vector<std::shared_ptr<runtime::StateCollectorPpm>> collectors;

  runtime::ScalingManager Manager() {
    std::unordered_map<NodeId, runtime::ModeProtocolPpm*> a;
    std::unordered_map<NodeId, runtime::StateCollectorPpm*> c;
    for (std::size_t i = 0; i < 3; ++i) {
      a[switches[i]] = agents[i].get();
      c[switches[i]] = collectors[i].get();
    }
    return runtime::ScalingManager(net.get(), a, c);
  }
};

Triangle MakeTriangle() {
  sim::Topology t;
  Triangle tri;
  for (int i = 0; i < 3; ++i) {
    tri.switches.push_back(t.AddNode(sim::NodeKind::kSwitch, "s" + std::to_string(i)));
  }
  t.AddDuplexLink(tri.switches[0], tri.switches[1], 100e6, kMillisecond, 200'000);
  t.AddDuplexLink(tri.switches[1], tri.switches[2], 100e6, kMillisecond, 200'000);
  t.AddDuplexLink(tri.switches[0], tri.switches[2], 100e6, kMillisecond, 200'000);
  for (int i = 0; i < 3; ++i) {
    tri.hosts.push_back(t.AddNode(sim::NodeKind::kHost, "h" + std::to_string(i)));
    t.AddDuplexLink(tri.switches[static_cast<std::size_t>(i)], tri.hosts.back(), 100e6,
                    kMillisecond, 200'000);
  }
  tri.net = std::make_unique<sim::Network>(std::move(t), 1);
  control::InstallDstRoutes(*tri.net);
  for (NodeId s : tri.switches) {
    auto pipe = std::make_unique<dataplane::Pipeline>(dataplane::DefaultSwitchCapacity());
    auto agent = std::make_shared<runtime::ModeProtocolPpm>(
        tri.net.get(), tri.net->switch_at(s), pipe.get(), runtime::ModeProtocolConfig{});
    auto collector =
        std::make_shared<runtime::StateCollectorPpm>(tri.net.get(), tri.net->switch_at(s));
    pipe->Install(agent);
    pipe->Install(collector);
    tri.net->switch_at(s)->SetProcessor(pipe.get());
    tri.pipelines.push_back(std::move(pipe));
    tri.agents.push_back(agent);
    tri.collectors.push_back(collector);
  }
  return tri;
}

/// Runs a 1 Mbps flow through switch 1 while it is blacked out for
/// `downtime`; returns the delivered fraction of a 6-second run.
double TrafficSurvival(SimTime downtime, bool announce) {
  Triangle tri = MakeTriangle();
  // Pin the route through the victim switch so the blackout matters.
  tri.net->switch_at(tri.switches[0])
      ->SetDstRoute(tri.net->topology().node(tri.hosts[2]).address,
                    {tri.switches[1], tri.switches[2]});
  sim::UdpParams udp;
  udp.rate_bps = 1e6;
  udp.packet_bytes = 500;
  const FlowId flow = tri.net->StartUdpFlow(tri.hosts[0], tri.hosts[2], udp, 0);
  runtime::ScalingManager manager = tri.Manager();  // its events point at it
  if (announce) {
    tri.net->events().ScheduleAt(kSecond, [&manager, &tri, downtime] {
      runtime::ScalingManager::Plan plan;
      plan.victim = tri.switches[1];
      plan.target = tri.switches[2];
      plan.downtime = downtime;
      manager.Repurpose(std::move(plan));
    });
  } else {
    sim::SwitchNode* victim = tri.net->switch_at(tri.switches[1]);
    tri.net->events().ScheduleAt(kSecond, [victim] { victim->SetOffline(true); });
    tri.net->events().ScheduleAt(kSecond + downtime, [victim] { victim->SetOffline(false); });
  }
  tri.net->RunUntil(6 * kSecond);
  const double expected = 1e6 / 8.0 * 6.0;
  return static_cast<double>(tri.net->flow_stats(flow).delivered_bytes) / expected;
}

/// State-transfer completeness under sender-side loss, with and without
/// FEC (group XOR parity, k=8), averaged over 10 trials of 2048 words.
Json StateTransfer(double loss) {
  std::size_t missing_plain = 0;
  std::size_t missing_fec = 0;
  std::size_t recovered = 0;
  const int trials = 10;
  for (int trial = 0; trial < trials; ++trial) {
    Triangle tri = MakeTriangle();
    std::vector<std::uint64_t> words(2048);
    for (std::size_t i = 0; i < words.size(); ++i) words[i] = i * 977 + 13;
    const Address dst = tri.net->topology().node(tri.switches[2]).address;
    const auto plain_id = 100 + static_cast<std::uint64_t>(trial);
    const auto fec_id = 200 + static_cast<std::uint64_t>(trial);
    runtime::StateTransferOptions plain;
    plain.send_parity = false;
    plain.inject_loss = loss;
    runtime::SendState(tri.net.get(), tri.net->switch_at(tri.switches[0]), dst, plain_id,
                       words, plain);
    runtime::StateTransferOptions fec;
    fec.fec_k = 8;
    fec.inject_loss = loss;
    runtime::SendState(tri.net.get(), tri.net->switch_at(tri.switches[0]), dst, fec_id,
                       words, fec);
    tri.net->RunUntil(2 * kSecond);
    missing_plain += tri.collectors[2]->MissingWords(plain_id);
    missing_fec += tri.collectors[2]->MissingWords(fec_id);
    recovered += tri.collectors[2]->RecoveredWords(fec_id);
  }
  const double plain_avg = static_cast<double>(missing_plain) / trials;
  const double fec_avg = static_cast<double>(missing_fec) / trials;
  return Json()
      .Set("plain_missing", plain_avg)
      .Set("fec_missing", fec_avg)
      .Set("fec_recovered", static_cast<double>(recovered) / trials)
      .Set("fec_advantage_words", plain_avg - fec_avg);
}

/// The full announce -> move state -> blackout -> return sequence, moving a
/// live sketch to the target switch.
Json RepurposeSequence() {
  Triangle tri = MakeTriangle();
  auto module = std::make_shared<boosters::DstFlowCountSketchPpm>(1024, 3);
  auto target_module = std::make_shared<boosters::DstFlowCountSketchPpm>(1024, 3);
  tri.pipelines[1]->Install(module);
  tri.pipelines[2]->Install(target_module);
  for (std::uint64_t k = 0; k < 500; ++k) module->sketch().Update(k, k);
  runtime::ScalingManager manager = tri.Manager();
  runtime::ScalingManager::Plan plan;
  plan.victim = tri.switches[1];
  plan.target = tri.switches[2];
  plan.moves = {{module.get(), target_module.get()}};
  plan.downtime = 2 * kSecond;  // Tofino-class reprogramming
  runtime::RepurposeReport report;
  plan.done = [&report](const runtime::RepurposeReport& r) { report = r; };
  manager.Repurpose(std::move(plan));
  tri.net->RunUntil(5 * kSecond);
  return Json()
      .Set("announced_s", ToSeconds(report.announced_at))
      .Set("offline_s", ToSeconds(report.offline_at))
      .Set("online_s", ToSeconds(report.online_at))
      .Set("state_words", report.state_words_moved)
      .Set("packets", report.packets_sent)
      .Set("state_intact",
           target_module->sketch().Estimate(499) == module->sketch().Estimate(499));
}

Json Fig1dBlock() {
  Json survival;
  for (SimTime downtime : {500 * kMillisecond, kSecond, 2 * kSecond, 4 * kSecond}) {
    survival.Set("downtime_" + std::to_string(downtime / kMillisecond) + "ms",
                 Json()
                     .Set("notified", TrafficSurvival(downtime, true))
                     .Set("unannounced", TrafficSurvival(downtime, false)));
  }
  Json transfer;
  for (int pct : {0, 1, 2, 5, 10}) {
    transfer.Set("loss_" + std::to_string(pct) + "pct", StateTransfer(pct / 100.0));
  }
  return Json()
      .Set("survival", std::move(survival))
      .Set("state_transfer", std::move(transfer))
      .Set("repurpose", RepurposeSequence());
}

// ---------------------------------------------------------------- fig2

struct Fleet {
  std::unique_ptr<sim::Network> net;
  std::vector<NodeId> switches;
  std::vector<std::unique_ptr<dataplane::Pipeline>> pipelines;
  std::vector<std::shared_ptr<runtime::ModeProtocolPpm>> agents;
};

Fleet MakeFleet(sim::Topology topo) {
  Fleet fleet;
  fleet.net = std::make_unique<sim::Network>(std::move(topo), 1);
  control::InstallDstRoutes(*fleet.net);
  for (const auto& n : fleet.net->topology().nodes()) {
    if (n.kind != sim::NodeKind::kSwitch) continue;
    fleet.switches.push_back(n.id);
    auto pipe = std::make_unique<dataplane::Pipeline>(dataplane::DefaultSwitchCapacity());
    auto agent = std::make_shared<runtime::ModeProtocolPpm>(
        fleet.net.get(), fleet.net->switch_at(n.id), pipe.get(),
        runtime::ModeProtocolConfig{});
    pipe->Install(agent);
    fleet.net->switch_at(n.id)->SetProcessor(pipe.get());
    fleet.pipelines.push_back(std::move(pipe));
    fleet.agents.push_back(std::move(agent));
  }
  return fleet;
}

sim::Topology LineTopo(int n, SimTime delay) {
  sim::Topology t;
  std::vector<NodeId> sw;
  for (int i = 0; i < n; ++i) {
    sw.push_back(t.AddNode(sim::NodeKind::kSwitch, "s" + std::to_string(i)));
    if (i > 0) {
      t.AddDuplexLink(sw[static_cast<std::size_t>(i - 1)], sw.back(), 100e6, delay, 200'000);
    }
  }
  return t;
}

/// Raises an alarm at the first agent and steps the clock in 100 us
/// increments until every pipeline holds the mode: the activation latency,
/// the switch count and the probes sent (the alarm's own included).
Json MeasureActivation(sim::Topology topo) {
  Fleet fleet = MakeFleet(std::move(topo));
  const SimTime start = fleet.net->Now();
  fleet.agents[0]->RaiseAlarm(dataplane::attack::kLinkFlooding,
                              dataplane::mode::kLfaReroute, true);
  SimTime latency = -1;
  for (SimTime t = start; t < start + 10 * kSecond && latency < 0;
       t += 100 * kMicrosecond) {
    fleet.net->RunUntil(t);
    const bool all = std::all_of(
        fleet.pipelines.begin(), fleet.pipelines.end(),
        [](const auto& p) { return p->ModeActive(dataplane::mode::kLfaReroute); });
    if (all) latency = fleet.net->Now() - start;
  }
  std::uint64_t probes = 1;
  for (const auto& a : fleet.agents) probes += a->probes_forwarded();
  return Json()
      .Set("switches", fleet.switches.size())
      .Set("activation_ms", ToMillis(latency))
      .Set("probes", probes);
}

Json Fig2Block(const Fig3Result& ff) {
  const Fig3Options opt;  // fig3 runs at the default attack time and SDN epoch
  Json fleets;
  for (int n : {3, 5, 10, 20}) {
    fleets.Set("line_" + std::to_string(n), MeasureActivation(LineTopo(n, kMillisecond)));
  }
  for (int k : {4, 6}) {
    fleets.Set("fattree_k" + std::to_string(k),
               MeasureActivation(scenarios::BuildFatTree(k, 1, 100e6, kMillisecond).topo));
  }
  // WAN-ish propagation: latency tracks the RTT scale, not software loops.
  fleets.Set("line_8_wan", MeasureActivation(LineTopo(8, 10 * kMillisecond)));
  std::printf("fig2   case study: alarm t=%.2f s, network-wide t=%.2f s\n",
              ToSeconds(ff.first_alarm), ToSeconds(ff.modes_active_at));
  return Json()
      .Set("fleets", std::move(fleets))
      .Set("case_study", Json()
                             .Set("attack_at_s", ToSeconds(opt.attack_at))
                             .Set("first_alarm_s", ToSeconds(ff.first_alarm))
                             .Set("modes_active_s", ToSeconds(ff.modes_active_at))
                             .Set("alarm_to_active_ms",
                                  ToMillis(ff.modes_active_at - ff.first_alarm))
                             .Set("sdn_first_epoch_s", ToSeconds(opt.sdn_epoch)));
}

// ---------------------------------------------------------------- m3

/// A Crossfire LFA in region 1 and a volumetric flood from compromised
/// servers in region 2, at once: the per-region mode state every 5 s, the
/// mitigation drops, and the attacker's rolls.
Json MixedVector() {
  using namespace scenarios;
  HotnetsTopology h = BuildHotnetsTopology();
  sim::Network net(h.topo, 1);
  net.EnableLinkSampling(10 * kMillisecond);
  auto normal = StartNormalTraffic(net, h);

  control::OrchestratorConfig cfg;
  cfg.te = scheduler::TeOptions{.k_paths = 2};
  cfg.boosters.push_back("volumetric_ddos");
  cfg.protected_dsts = {net.topology().node(h.victim).address};
  cfg.volumetric.dst_rate_alarm_bps = 40e6;
  for (NodeId sw : {h.a, h.b, h.e, h.m1, h.m2, h.m3}) cfg.regions[sw] = 1;
  for (NodeId sw : {h.r, h.rv, h.rd}) cfg.regions[sw] = 2;
  control::FastFlexOrchestrator orch(&net, cfg);
  orch.Deploy(normal.demands, [&h](sim::Network& n) { SpreadDecoyRoutes(n, h); });

  attacks::CrossfireConfig lfa;
  lfa.bots = {h.bots[0], h.bots[1], h.bots[2], h.bots[3]};
  lfa.decoys = h.decoys;
  lfa.attack_at = 10 * kSecond;
  lfa.flows_per_target = 200;
  attacks::CrossfireAttacker attacker(&net, lfa);
  attacker.Start();

  attacks::VolumetricConfig vol;
  vol.bots = {h.decoys[1], h.decoys[2]};  // compromised servers near the victim
  vol.victim = h.victim;
  vol.rate_per_bot_bps = 60e6;
  vol.start = 10 * kSecond;
  attacks::LaunchVolumetric(net, vol);

  using dataplane::mode::kLfaReroute;
  using dataplane::mode::kVolumetricFilter;
  Json samples;
  for (int s = 5; s <= 40; s += 5) {
    net.RunUntil(s * kSecond);
    samples.Set("t" + std::to_string(s),
                Json()
                    .Set("lfa_region1", orch.FractionModeActive(kLfaReroute, 1))
                    .Set("lfa_region2", orch.FractionModeActive(kLfaReroute, 2))
                    .Set("vol_region1", orch.FractionModeActive(kVolumetricFilter, 1))
                    .Set("vol_region2", orch.FractionModeActive(kVolumetricFilter, 2))
                    .Set("victim_goodput_mbps",
                         net.AggregateGoodputBps(normal.flows, (s - 1) * kSecond) / 1e6));
  }
  std::uint64_t hh_drops = 0;
  std::uint64_t lfa_drops = 0;
  for (const auto& n : net.topology().nodes()) {
    if (n.kind != sim::NodeKind::kSwitch) continue;
    if (auto* f = orch.hh_filter(n.id)) hh_drops += f->dropped();
    if (auto* d = orch.dropper(n.id)) lfa_drops += d->dropped();
  }
  return Json()
      .Set("samples", std::move(samples))
      .Set("volumetric_filter_drops", hh_drops)
      .Set("lfa_illusion_drops", lfa_drops)
      .Set("rolls", attacker.rolls().size());
}

/// A 10 Mbps global limit enforced across two ingress switches (30 Mbps
/// offered) at sync period `period`: delivered rate, error vs the limit,
/// and the sync cost.
Json RateLimit(SimTime period) {
  // Y topology: two ingress switches feed a common egress.
  sim::Topology t;
  const NodeId in1 = t.AddNode(sim::NodeKind::kSwitch, "in1");
  const NodeId in2 = t.AddNode(sim::NodeKind::kSwitch, "in2");
  const NodeId out = t.AddNode(sim::NodeKind::kSwitch, "out");
  t.AddDuplexLink(in1, out, 100e6, kMillisecond, 200'000);
  t.AddDuplexLink(in2, out, 100e6, kMillisecond, 200'000);
  const NodeId src1 = t.AddNode(sim::NodeKind::kHost, "src1");
  const NodeId src2 = t.AddNode(sim::NodeKind::kHost, "src2");
  const NodeId sink = t.AddNode(sim::NodeKind::kHost, "sink");
  t.AddDuplexLink(in1, src1, 100e6, kMillisecond, 200'000);
  t.AddDuplexLink(in2, src2, 100e6, kMillisecond, 200'000);
  t.AddDuplexLink(out, sink, 100e6, kMillisecond, 200'000);

  sim::Network net(t, 1);
  control::InstallDstRoutes(net);
  boosters::RateLimitConfig config;
  config.global_limit_bps = 10e6;
  config.sync_period = period;
  config.view_timeout = 5 * period;
  const Address service = net.topology().node(sink).address;

  std::vector<std::shared_ptr<boosters::GlobalRateLimiterPpm>> limiters;
  std::vector<std::unique_ptr<dataplane::Pipeline>> pipelines;
  for (NodeId sw : {in1, in2, out}) {
    // Ingress switches enforce; the egress only relays sync probes
    // (monitor-only) so it never double-counts metered traffic.
    const bool monitor_only = (sw == out);
    auto pipe = std::make_unique<dataplane::Pipeline>(dataplane::DefaultSwitchCapacity());
    auto limiter = std::make_shared<boosters::GlobalRateLimiterPpm>(
        &net, net.switch_at(sw), pipe.get(), 7, std::vector<Address>{service}, config,
        monitor_only);
    pipe->Install(limiter);
    pipe->ActivateMode(dataplane::mode::kGlobalRateLimit);
    limiter->StartTimers();
    net.switch_at(sw)->SetProcessor(pipe.get());
    if (!monitor_only) limiters.push_back(limiter);
    pipelines.push_back(std::move(pipe));
  }

  sim::UdpParams udp;
  udp.rate_bps = 20e6;
  udp.packet_bytes = 1000;
  const FlowId f1 = net.StartUdpFlow(src1, sink, udp, 0);
  sim::UdpParams udp2 = udp;
  udp2.rate_bps = 10e6;
  const FlowId f2 = net.StartUdpFlow(src2, sink, udp2, 0);
  net.RunUntil(10 * kSecond);

  const double delivered =
      static_cast<double>(net.flow_stats(f1).delivered_bytes +
                          net.flow_stats(f2).delivered_bytes) *
      8.0 / 10.0;
  const double syncs =
      static_cast<double>(limiters[0]->syncs_sent() + limiters[1]->syncs_sent()) / 10.0;
  return Json()
      .Set("delivered_mbps", delivered / 1e6)
      .Set("error_vs_limit", (delivered - 10e6) / 10e6)
      .Set("sync_pkts_per_s", syncs);
}

/// Coremelt (bot-to-bot flooding, no destination convergence) against the
/// LFA detector with and without its aggregate swarm signature.
Json Coremelt(bool aggregate_on) {
  using namespace scenarios;
  HotnetsParams params;
  params.decoy_count = 12;
  HotnetsTopology h = BuildHotnetsTopology(params);
  sim::Network net(h.topo, 1);
  net.EnableLinkSampling(10 * kMillisecond);
  auto normal = StartNormalTraffic(net, h);
  control::OrchestratorConfig cfg;
  cfg.te = scheduler::TeOptions{.k_paths = 2};
  cfg.lfa.aggregate_flow_alarm = aggregate_on ? 80 : 1'000'000;
  control::FastFlexOrchestrator orch(&net, cfg);
  orch.Deploy(normal.demands, [&h](sim::Network& n) { SpreadDecoyRoutes(n, h); });

  attacks::CoremeltConfig atk;
  atk.left_bots = h.bots;
  atk.right_bots = h.decoys;
  atk.total_flows = 200;
  atk.start = 5 * kSecond;
  attacks::LaunchCoremelt(net, atk);
  net.RunUntil(20 * kSecond);

  bool alarm = false;
  std::uint64_t swarm = 0;
  for (const auto& n : net.topology().nodes()) {
    if (n.kind != sim::NodeKind::kSwitch) continue;
    if (auto* det = orch.lfa_detector(n.id)) {
      alarm |= det->alarm_raised_at() > 0;
      swarm = std::max(swarm, det->persistent_low_rate_flows());
    }
  }
  return Json()
      .Set("alarm_fired", alarm)
      .Set("max_swarm_flows", swarm)
      .Set("normal_goodput_mbps", net.AggregateGoodputBps(normal.flows, 18 * kSecond) / 1e6);
}

Json M3Block() {
  Json rate_limit;
  for (SimTime period : {25 * kMillisecond, 100 * kMillisecond, 400 * kMillisecond}) {
    rate_limit.Set("sync_" + std::to_string(period / kMillisecond) + "ms", RateLimit(period));
  }
  return Json()
      .Set("mixed", MixedVector())
      .Set("rate_limit", std::move(rate_limit))
      .Set("coremelt", Json()
                           .Set("convergence_only", Coremelt(false))
                           .Set("aggregate_swarm", Coremelt(true)));
}

}  // namespace

int main() {
  const auto wall_start = std::chrono::steady_clock::now();
  Json timing;
  timing.Set("cpus", static_cast<int>(std::thread::hardware_concurrency()));
  auto timed = [&timing](const char* name, auto&& block) {
    const auto t0 = std::chrono::steady_clock::now();
    Json j = block();
    timing.Set(name, Seconds(t0));
    return j;
  };

  const auto specs = boosters::SpecsFor(boosters::FullBoosterSuite());
  Fig3Result ff_seed1;
  Json doc;
  doc.Set("schema", "fastflex.bench_paper.v1");
  doc.Set("fig3", timed("fig3", [&] { return Fig3Block(ff_seed1); }));
  doc.Set("fig1a", timed("fig1a", [&] { return Fig1aBlock(specs); }));
  doc.Set("fig1b", timed("fig1b", [&] { return Fig1bBlock(specs); }));
  doc.Set("fig1c", timed("fig1c", [&] { return Fig1cBlock(specs); }));
  doc.Set("fig1d", timed("fig1d", [] { return Fig1dBlock(); }));
  doc.Set("fig2", timed("fig2", [&] { return Fig2Block(ff_seed1); }));
  doc.Set("a1", timed("a1", [] { return A1Block(); }));
  doc.Set("a2", timed("a2", [] { return A2Block(); }));
  doc.Set("m3", timed("m3", [] { return M3Block(); }));
  timing.Set("total", Seconds(wall_start));
  doc.Set("timing", std::move(timing));

  const char* artifact = "BENCH_paper.json";
  std::ofstream out(artifact, std::ios::binary);
  out << doc.Dump() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "FAILED to write %s\n", artifact);
    return 1;
  }
  std::printf("artifact: %s (%.1f s)\n", artifact, Seconds(wall_start));
  return 0;
}
