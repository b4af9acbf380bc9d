// End-to-end integration tests: shortened versions of the paper's
// evaluation, asserting the qualitative claims Figure 3 makes, plus the
// ablations and the mixed-vector (co-existing modes) scenario.
#include <gtest/gtest.h>

#include <vector>

#include "attacks/generators.h"
#include "control/orchestrator.h"
#include "scenarios/fig3.h"
#include "scenarios/hotnets.h"

namespace fastflex::scenarios {
namespace {

Fig3Options ShortRun(DefenseKind defense) {
  Fig3Options opt;
  opt.defense = defense;
  opt.duration = 45 * kSecond;
  opt.attack_at = 10 * kSecond;
  return opt;
}

TEST(Fig3IntegrationTest, UndefendedAttackHalvesThroughput) {
  const auto r = RunFig3(ShortRun(DefenseKind::kNone));
  EXPECT_GT(r.stable_goodput_bps, 15e6);  // sanity: the workload is real
  // One critical link flooded: the flows on it starve.
  EXPECT_LT(r.mean_during_attack, 0.65);
  EXPECT_TRUE(r.rolls.empty());  // nothing fights back, nothing to detect
}

TEST(Fig3IntegrationTest, BaselineRecoversOnlyAtEpoch) {
  auto opt = ShortRun(DefenseKind::kBaselineSdn);
  const auto r = RunFig3(opt);
  // Before the first TE epoch (t=30) throughput is depressed.
  const auto attack_s = static_cast<std::size_t>(opt.attack_at / kSecond);
  double before = 0;
  for (std::size_t s = attack_s + 3; s < 30; ++s) before += r.normalized[s];
  before /= static_cast<double>(30 - attack_s - 3);
  EXPECT_LT(before, 0.65);
  // After the epoch it recovers substantially.
  double after = 0;
  for (std::size_t s = 33; s < 40; ++s) after += r.normalized[s];
  after /= 7.0;
  EXPECT_GT(after, before + 0.15);
  EXPECT_GE(r.sdn_reconfigurations, 1);
}

TEST(Fig3IntegrationTest, FastFlexMitigatesWithinSeconds) {
  const auto r = RunFig3(ShortRun(DefenseKind::kFastFlex));
  ASSERT_GT(r.first_alarm, 0);
  // Detection within a few seconds of attack start...
  EXPECT_LT(r.first_alarm, 15 * kSecond);
  // ...and the mode change completes within ~RTTs of the alarm, not the
  // baseline's 20-second wait.
  EXPECT_LT(r.modes_active_at - r.first_alarm, 500 * kMillisecond);
  // Normal flows barely notice the attack.
  EXPECT_GT(r.mean_during_attack, 0.85);
  // Obfuscation + illusion-of-success: the attacker never rolled.
  EXPECT_TRUE(r.rolls.empty());
  // The illusion is made of dropped packets.
  EXPECT_GT(r.policy_drops, 100u);
}

TEST(Fig3IntegrationTest, FastFlexBeatsBaselineBeatsNothing) {
  const auto none = RunFig3(ShortRun(DefenseKind::kNone));
  const auto sdn = RunFig3(ShortRun(DefenseKind::kBaselineSdn));
  const auto ff = RunFig3(ShortRun(DefenseKind::kFastFlex));
  EXPECT_GT(ff.mean_during_attack, sdn.mean_during_attack);
  EXPECT_GE(sdn.mean_during_attack, none.mean_during_attack - 0.02);
}

TEST(Fig3IntegrationTest, DeterministicAcrossRuns) {
  const auto a = RunFig3(ShortRun(DefenseKind::kFastFlex));
  const auto b = RunFig3(ShortRun(DefenseKind::kFastFlex));
  EXPECT_EQ(a.normalized, b.normalized);
  EXPECT_EQ(a.first_alarm, b.first_alarm);
  EXPECT_EQ(a.policy_drops, b.policy_drops);
}

TEST(Fig3IntegrationTest, ShortRunIsPrefixOfLongerRun) {
  // bench_paper reads the Fig. 2 case-study timeline from its 120 s Fig. 3
  // run rather than from a separate 30 s run.  That holds because a run,
  // instrumented or not, is an exact prefix of any longer run.
  telemetry::Recorder rec;
  auto short_opt = ShortRun(DefenseKind::kFastFlex);
  short_opt.duration = 30 * kSecond;
  short_opt.recorder = &rec;
  const auto s = RunFig3(short_opt);
  const auto l = RunFig3(ShortRun(DefenseKind::kFastFlex));
  ASSERT_EQ(s.normalized.size(), 30u);
  ASSERT_GT(l.normalized.size(), 30u);
  ASSERT_GT(s.first_alarm, 0);
  EXPECT_EQ(s.first_alarm, l.first_alarm);
  EXPECT_EQ(s.modes_active_at, l.modes_active_at);
  EXPECT_EQ(s.stable_goodput_bps, l.stable_goodput_bps);
  EXPECT_EQ(s.normalized,
            std::vector<double>(l.normalized.begin(), l.normalized.begin() + 30));
}

TEST(Fig3IntegrationTest, SeedsChangeDetailsNotConclusions) {
  auto opt = ShortRun(DefenseKind::kFastFlex);
  opt.seed = 7;
  const auto r7 = RunFig3(opt);
  opt.seed = 99;
  const auto r99 = RunFig3(opt);
  EXPECT_GT(r7.mean_during_attack, 0.8);
  EXPECT_GT(r99.mean_during_attack, 0.8);
}

TEST(AblationTest, WithoutBlindingAttackerKeepsRolling) {
  // A2: disable obfuscation and dropping — FastFlex still reroutes, so
  // throughput stays decent, but the attacker sees the response and rolls.
  auto opt = ShortRun(DefenseKind::kFastFlex);
  opt.duration = 60 * kSecond;
  opt.enable_obfuscation = false;
  opt.enable_dropping = false;
  const auto r = RunFig3(opt);
  EXPECT_FALSE(r.rolls.empty());
  // Each roll forces a fresh detection cycle, so the time-average sits well
  // below the full defense; rerouting alone still roughly matches the
  // baseline without waiting for 30 s epochs.
  EXPECT_GT(r.mean_during_attack, 0.5);
}

TEST(AblationTest, FullDefenseQuellsRollingVsNoBlinding) {
  auto full = ShortRun(DefenseKind::kFastFlex);
  full.duration = 60 * kSecond;
  const auto r_full = RunFig3(full);

  auto blind = full;
  blind.enable_obfuscation = false;
  blind.enable_dropping = false;
  const auto r_blind = RunFig3(blind);

  EXPECT_LT(r_full.rolls.size(), r_blind.rolls.size() + 1);
  // Blinding (obfuscation + illusion-of-success) is worth a large chunk of
  // throughput: without it the attacker's rolling keeps re-disturbing the
  // network.
  EXPECT_GT(r_full.mean_during_attack, r_blind.mean_during_attack + 0.15);
}

TEST(AblationTest, StickyRerouteAvoidsHerding) {
  // A2's reroute-alone setting: without obfuscation and dropping the
  // attacker keeps rolling, so rerouting carries the whole defense.  Best-
  // path rerouting without flowlet-sticky binding herds the suspect
  // aggregate onto one detour and collapses it.
  auto sticky = ShortRun(DefenseKind::kFastFlex);
  sticky.enable_obfuscation = false;
  sticky.enable_dropping = false;
  auto herding = sticky;
  herding.sticky_reroute = false;
  const auto r_sticky = RunFig3(sticky);
  const auto r_herding = RunFig3(herding);
  EXPECT_GE(r_sticky.mean_during_attack, r_herding.mean_during_attack + 0.15);
}

TEST(AblationTest, RerouteAllDisturbsNormalFlowsMore) {
  // A1: rerouting everything (not just suspects) abandons TE pinning; the
  // suspicious-only policy should never be materially worse.
  auto pinned = ShortRun(DefenseKind::kFastFlex);
  const auto r_pinned = RunFig3(pinned);
  auto all = pinned;
  all.reroute_all = true;
  const auto r_all = RunFig3(all);
  EXPECT_GE(r_pinned.mean_during_attack, r_all.mean_during_attack - 0.03);
}

TEST(RepurposeUnderAttackTest, DefenseContinuesThroughReconfiguration) {
  // Section 3.4: "when we repurpose a switch at runtime, we need to ensure
  // that its functions are correctly and efficiently handled elsewhere."
  // Repurpose middle switch M3 (the detour) in the middle of a mitigated
  // LFA: the defense must keep the normal flows whole throughout.
  HotnetsTopology h = BuildHotnetsTopology();
  sim::Network net(h.topo, 1);
  net.EnableLinkSampling(10 * kMillisecond);
  auto normal = StartNormalTraffic(net, h);
  control::OrchestratorConfig cfg;
  cfg.te = scheduler::TeOptions{.k_paths = 2};
  control::FastFlexOrchestrator orch(&net, cfg);
  orch.Deploy(normal.demands, [&h](sim::Network& n) { SpreadDecoyRoutes(n, h); });

  attacks::CrossfireConfig atk;
  atk.bots = h.bots;
  atk.decoys = h.decoys;
  atk.attack_at = 5 * kSecond;
  atk.flows_per_target = 200;
  attacks::CrossfireAttacker attacker(&net, atk);
  attacker.Start();

  // At t=15 s (defense long since engaged), repurpose M3 for 2 s, moving
  // its detector state to M2.
  bool repurposed = false;
  net.events().ScheduleAt(15 * kSecond, [&] {
    runtime::ScalingManager::Plan plan;
    plan.victim = h.m3;
    plan.target = h.m2;
    plan.moves = {{orch.lfa_detector(h.m3), orch.lfa_detector(h.m2)}};
    plan.downtime = 2 * kSecond;
    plan.done = [&](const runtime::RepurposeReport&) { repurposed = true; };
    orch.scaling().Repurpose(std::move(plan));
  });

  net.RunUntil(30 * kSecond);
  ASSERT_TRUE(repurposed);
  // Normal goodput through the blackout window (15-18 s) held up.
  double bps_sum = 0;
  for (int s = 15; s < 18; ++s) {
    bps_sum += net.AggregateGoodputBps(normal.flows, s * kSecond);
  }
  EXPECT_GT(bps_sum / 3.0, 0.7 * 23e6);
  // And at the end the defense is still standing (attack ongoing).
  EXPECT_GT(orch.FractionModeActive(dataplane::mode::kLfaReroute), 0.9);
  EXPECT_TRUE(attacker.rolls().empty());
}

TEST(MixedVectorTest, CoexistingModesInDifferentRegions) {
  // LFA in the left region (1) and a volumetric flood against the victim
  // handled in the right region (2): both defenses engage, each scoped to
  // its region — the multimode abstraction of Figure 2's caption.
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
  lfa.attack_at = 5 * kSecond;
  lfa.flows_per_target = 200;
  attacks::CrossfireAttacker attacker(&net, lfa);
  attacker.Start();

  // The volumetric flood originates inside region 2: compromised "public
  // servers" (decoys) near the victim turn their 100 Mbps uplinks on it —
  // the paper's compromised-endpoint threat model.
  attacks::VolumetricConfig vol;
  vol.bots = {h.decoys[1], h.decoys[2]};
  vol.victim = h.victim;
  vol.rate_per_bot_bps = 60e6;
  vol.start = 5 * kSecond;
  attacks::LaunchVolumetric(net, vol);

  net.RunUntil(25 * kSecond);

  // LFA modes engaged in region 1 only.
  EXPECT_GT(orch.FractionModeActive(dataplane::mode::kLfaReroute, 1), 0.9);
  EXPECT_DOUBLE_EQ(orch.FractionModeActive(dataplane::mode::kLfaReroute, 2), 0.0);
  // Volumetric filtering engaged in region 2 only.
  EXPECT_GT(orch.FractionModeActive(dataplane::mode::kVolumetricFilter, 2), 0.9);
  EXPECT_DOUBLE_EQ(orch.FractionModeActive(dataplane::mode::kVolumetricFilter, 1), 0.0);
  // Both mitigations actually fired.
  std::uint64_t hh_drops = 0;
  for (NodeId sw : {h.r, h.rv, h.rd}) {
    if (auto* f = orch.hh_filter(sw)) hh_drops += f->dropped();
  }
  EXPECT_GT(hh_drops, 100u);
  std::uint64_t lfa_drops = 0;
  for (NodeId sw : {h.a, h.b, h.m1, h.m2, h.m3, h.e}) {
    if (auto* d = orch.dropper(sw)) lfa_drops += d->dropped();
  }
  EXPECT_GT(lfa_drops, 100u);
}

}  // namespace
}  // namespace fastflex::scenarios
