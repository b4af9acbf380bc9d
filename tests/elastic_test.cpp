// ElasticOrchestrator tests: scale-up on alarm pressure, lowest-value-first
// shedding under a tightened stage budget, quiet-epoch teardown back to the
// default program, region scoping, reject bookkeeping, elastic-telemetry
// replay identity, and the multi-tenant co-existence acceptance run.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "control/elastic.h"
#include "control/orchestrator.h"
#include "scenarios/hotnets.h"
#include "scenarios/multi_tenant_fig.h"
#include "telemetry/export.h"

namespace fastflex::control {
namespace {

using scenarios::BuildHotnetsTopology;
using scenarios::HotnetsTopology;
using scenarios::SpreadDecoyRoutes;
using scenarios::StartNormalTraffic;

// The four-booster default program (13.0 stages with shared components)
// fits a 16-stage budget; syn_mitigation (+3.5) does not until the 1.5-stage
// hop_count_filter is shed.
dataplane::ResourceVector TightCapacity() {
  return dataplane::ResourceVector{16.0, 120.0, 6144.0, 64.0};
}

ElasticPolicy FastPolicy() {
  ElasticPolicy policy;
  policy.epoch = 200 * kMillisecond;
  policy.quiet_epochs = 2;
  policy.placement.switch_capacity = TightCapacity();
  return policy;
}

struct Deployed {
  HotnetsTopology h = BuildHotnetsTopology();
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<FastFlexOrchestrator> orch;
  telemetry::Recorder rec;
  std::unique_ptr<ElasticOrchestrator> elastic;

  explicit Deployed(dataplane::ResourceVector capacity = TightCapacity(),
                    ElasticPolicy policy = FastPolicy(), bool regioned = false) {
    net = std::make_unique<sim::Network>(h.topo, 1);
    net->EnableLinkSampling(10 * kMillisecond);
    auto normal = StartNormalTraffic(*net, h);
    OrchestratorConfig cfg;
    cfg.te = scheduler::TeOptions{.k_paths = 2};
    cfg.boosters = {"lfa_detection", "congestion_reroute", "syn_detection",
                    "hop_count_filter"};
    cfg.protected_dsts = {net->topology().node(h.victim).address};
    cfg.switch_capacity = capacity;
    cfg.placement.switch_capacity = capacity;
    if (regioned) {
      for (NodeId sw : {h.a, h.b, h.e}) cfg.regions[sw] = 1;
      for (NodeId sw : {h.m1, h.m2, h.m3, h.r, h.rv, h.rd}) cfg.regions[sw] = 2;
    }
    orch = std::make_unique<FastFlexOrchestrator>(net.get(), cfg);
    orch->Deploy(normal.demands, [this](sim::Network& n) { SpreadDecoyRoutes(n, h); });
    elastic = std::make_unique<ElasticOrchestrator>(net.get(), orch.get(),
                                                    std::move(policy), &rec);
    elastic->Start();
  }

  void RaiseSyn(NodeId sw, bool activate) {
    orch->agent(sw)->RaiseAlarm(dataplane::attack::kSynFlood,
                                dataplane::mode::kSynDefense, activate);
  }

  std::vector<NodeId> Switches() const {
    std::vector<NodeId> out;
    for (const auto& n : net->topology().nodes()) {
      if (n.kind == sim::NodeKind::kSwitch) out.push_back(n.id);
    }
    return out;
  }
};

TEST(ElasticTest, ScaleUpOnAlarmPressure) {
  Deployed d;
  for (NodeId sw : d.Switches()) {
    EXPECT_FALSE(d.orch->BoosterInstalled(sw, "syn_mitigation"));
  }
  d.RaiseSyn(d.h.a, true);
  d.net->RunUntil(2 * kSecond);

  // Unregioned fabric: region 0 is the sole (global) region of rule 1 (SYN).
  EXPECT_TRUE(d.elastic->RegionScaledUp(1, 0));
  for (NodeId sw : d.Switches()) {
    EXPECT_TRUE(d.orch->BoosterInstalled(sw, "syn_mitigation")) << sw;
    EXPECT_FALSE(d.elastic->loop_installed().at(sw).empty());
  }
  const auto& totals = d.elastic->totals();
  EXPECT_EQ(totals.scale_ups, d.Switches().size());
  EXPECT_GT(totals.epochs, 0u);
  EXPECT_GT(totals.repurposes, 0u);
  EXPECT_GT(totals.replans, 0u);
  // Every install paid the repurposing sequence, never a free flip.
  EXPECT_LE(totals.scale_ups, totals.repurposes * 1);
}

TEST(ElasticTest, ShedsLowestValueBoosterFirstAndStaysInBudget) {
  Deployed d;
  d.RaiseSyn(d.h.a, true);
  d.net->RunUntil(2 * kSecond);

  const auto& totals = d.elastic->totals();
  EXPECT_EQ(totals.sheds, d.Switches().size());
  EXPECT_EQ(totals.install_rejects, 0u);
  EXPECT_EQ(totals.over_budget, 0u);
  const auto sheds = d.rec.trace().EventsWithPrefix("elastic.shed.");
  EXPECT_EQ(sheds.size(), totals.sheds);
  for (const telemetry::TraceEvent* e : sheds) {
    // hop_count_filter (value 25) is the cheapest resident booster; the
    // never-shed floor protects the detectors and reroute.
    EXPECT_EQ(e->name, "elastic.shed.hop_count_filter");
  }
  for (NodeId sw : d.Switches()) {
    EXPECT_FALSE(d.orch->BoosterInstalled(sw, "hop_count_filter")) << sw;
    EXPECT_TRUE(d.orch->BoosterInstalled(sw, "lfa_detection")) << sw;
    EXPECT_TRUE(d.orch->BoosterInstalled(sw, "syn_detection")) << sw;
    const dataplane::Pipeline* pipe = d.orch->pipeline(sw);
    EXPECT_TRUE(pipe->used().FitsIn(pipe->capacity())) << sw;
  }
}

TEST(ElasticTest, QuietEpochsTearDownToDefaultProgram) {
  Deployed d;
  d.RaiseSyn(d.h.a, true);
  d.net->RunUntil(2 * kSecond);
  ASSERT_TRUE(d.elastic->RegionScaledUp(1, 0));
  d.RaiseSyn(d.h.a, false);
  d.net->RunUntil(8 * kSecond);

  EXPECT_FALSE(d.elastic->RegionScaledUp(1, 0));
  for (NodeId sw : d.Switches()) {
    EXPECT_FALSE(d.orch->BoosterInstalled(sw, "syn_mitigation")) << sw;
    auto it = d.elastic->loop_installed().find(sw);
    if (it != d.elastic->loop_installed().end()) {
      EXPECT_TRUE(it->second.empty());
    }
  }
  const auto& totals = d.elastic->totals();
  EXPECT_EQ(totals.teardowns, totals.scale_ups);
  EXPECT_EQ(totals.over_budget, 0u);

  // A second flare-up scales right back up: teardown cleared the slate.
  d.RaiseSyn(d.h.a, true);
  d.net->RunUntil(10 * kSecond);
  EXPECT_TRUE(d.elastic->RegionScaledUp(1, 0));
  EXPECT_EQ(d.elastic->totals().scale_ups, 2 * d.Switches().size());
}

TEST(ElasticTest, RejectsWhenNothingSheddableRemains) {
  // 14 stages: the default program (13.0) fits, but syn_mitigation does not
  // even after shedding hop_count_filter (11.5 + 3.5 = 15) — and everything
  // else sits at or above the never-shed floor.
  Deployed d(dataplane::ResourceVector{14.0, 120.0, 6144.0, 64.0});
  d.RaiseSyn(d.h.a, true);
  d.net->RunUntil(2 * kSecond);

  const auto& totals = d.elastic->totals();
  EXPECT_EQ(totals.install_rejects, d.Switches().size());
  EXPECT_EQ(totals.scale_ups, 0u);
  EXPECT_EQ(totals.over_budget, 0u);
  EXPECT_EQ(d.rec.trace().EventsWithPrefix("elastic.reject.syn_mitigation").size(),
            d.Switches().size());
  for (NodeId sw : d.Switches()) {
    EXPECT_FALSE(d.orch->BoosterInstalled(sw, "syn_mitigation")) << sw;
    const dataplane::Pipeline* pipe = d.orch->pipeline(sw);
    EXPECT_TRUE(pipe->used().FitsIn(pipe->capacity())) << sw;
  }
  // Rejected installs are not retried while the pressure persists: no new
  // repurposing blackouts epoch after epoch.
  const std::uint64_t repurposes = totals.repurposes;
  d.net->RunUntil(4 * kSecond);
  EXPECT_EQ(totals.repurposes, repurposes);
  EXPECT_EQ(totals.install_rejects, d.Switches().size());
}

TEST(ElasticTest, ScaleUpScopedToPressuredRegion) {
  Deployed d(TightCapacity(), FastPolicy(), /*regioned=*/true);
  d.RaiseSyn(d.h.a, true);  // h.a sits in region 1
  d.net->RunUntil(2 * kSecond);

  EXPECT_TRUE(d.elastic->RegionScaledUp(1, 1));
  EXPECT_FALSE(d.elastic->RegionScaledUp(1, 2));
  for (NodeId sw : {d.h.a, d.h.b, d.h.e}) {
    EXPECT_TRUE(d.orch->BoosterInstalled(sw, "syn_mitigation")) << sw;
  }
  for (NodeId sw : {d.h.m1, d.h.m2, d.h.m3, d.h.r, d.h.rv, d.h.rd}) {
    EXPECT_FALSE(d.orch->BoosterInstalled(sw, "syn_mitigation")) << sw;
  }
  EXPECT_EQ(d.elastic->totals().scale_ups, 3u);
  // Each decision event names the switch it acted on.
  for (const telemetry::TraceEvent* e : d.rec.trace().EventsWithPrefix("elastic.scale_up.")) {
    const auto sw = static_cast<NodeId>(e->Field("sw"));
    EXPECT_TRUE(sw == d.h.a || sw == d.h.b || sw == d.h.e) << sw;
  }
}

TEST(ElasticTest, ElasticTelemetryReplayIsByteIdentical) {
  auto cycle = [] {
    Deployed d;
    d.net->events().ScheduleAfter(500 * kMillisecond, [&d] { d.RaiseSyn(d.h.a, true); });
    d.net->events().ScheduleAfter(3 * kSecond, [&d] { d.RaiseSyn(d.h.a, false); });
    d.net->RunUntil(8 * kSecond);
    d.elastic->CollectTelemetry(d.rec);
    return telemetry::ToJson(d.rec);
  };
  const std::string a = cycle();
  const std::string b = cycle();
  EXPECT_NE(a.find("\"elastic.scale_ups\""), std::string::npos);
  EXPECT_NE(a.find("\"elastic.scale_up.syn_mitigation\""), std::string::npos);
  EXPECT_NE(a.find("\"elastic.teardown.syn_mitigation\""), std::string::npos);
  EXPECT_EQ(a, b);
}

TEST(ElasticTest, MultiTenantCoexistenceAcceptance) {
  telemetry::Recorder rec;
  scenarios::MultiTenantOptions opt;
  opt.recorder = &rec;
  const auto r = scenarios::RunMultiTenantFig(opt);

  // LFA tenant (region 1): detector fired, the illusion pair scaled up and
  // dropped attack traffic region-wide.
  EXPECT_GT(r.lfa_alarm_at, 0u);
  EXPECT_GT(r.illusion_drops, 0u);
  EXPECT_DOUBLE_EQ(r.lfa_mode_frac_peak, 1.0);
  // SYN tenant (region 3): the proxy scaled up, cookied the flood, and let
  // legitimate handshakes through.
  EXPECT_GT(r.cookies_sent, 0u);
  EXPECT_GT(r.handshakes_validated, 0u);
  EXPECT_DOUBLE_EQ(r.syn_mode_frac_peak, 1.0);
  EXPECT_GT(r.completed, 0);
  // The capacity fight happened and no switch ever sat over budget.
  EXPECT_GT(r.sheds, 0u);
  EXPECT_EQ(r.over_budget, 0u);
  EXPECT_EQ(r.install_rejects, 0u);
  // Full post-attack retirement, after the attacks stopped.
  EXPECT_TRUE(r.retired);
  EXPECT_EQ(r.teardowns, r.scale_ups);
  EXPECT_GT(r.last_teardown_at, 30 * kSecond);
  // The SYN proxies were torn down before the run ended; their counts
  // survive in the export as each switch's whole-run total.
  std::uint64_t cookies = 0;
  for (const auto& [name, counter] : rec.metrics().counters()) {
    if (name.ends_with(".syn_proxy.cookies_sent")) cookies += counter.value();
  }
  EXPECT_EQ(cookies, r.cookies_sent);
  // The totals and the decision log rode into the exported artifact.
  const std::string json = telemetry::ToJson(rec);
  EXPECT_NE(json.find("\"elastic.scale_ups\":" + std::to_string(r.scale_ups)),
            std::string::npos);
  EXPECT_NE(json.find("\"elastic.shed."), std::string::npos);
}

}  // namespace
}  // namespace fastflex::control
