#include "scenarios/fig3.h"

#include <algorithm>
#include <string>
#include <vector>

#include "scenarios/builder.h"

namespace fastflex::scenarios {

Fig3Result SummarizeFig3Run(BuiltScenario& s, SimTime duration, SimTime attack_at,
                            telemetry::Recorder* recorder) {
  sim::Network& net = *s.net;
  Fig3Result result;
  result.modes_active_at = s.modes_active_at();

  // Per-second aggregate goodput of the normal flows.
  const auto seconds = static_cast<std::size_t>(duration / kSecond);
  std::vector<double> goodput_bps(seconds, 0.0);
  for (FlowId f : s.normal.flows) {
    const auto& series = net.flow_stats(f).goodput;  // 100 ms bins
    for (std::size_t sec = 0; sec < seconds; ++sec) {
      double bytes = 0.0;
      for (std::size_t sub = 0; sub < 10; ++sub) bytes += series.BinTotal(sec * 10 + sub);
      goodput_bps[sec] += bytes * 8.0;
    }
  }

  // Stable throughput: the average over the window just before the attack.
  const auto attack_s = static_cast<std::size_t>(attack_at / kSecond);
  double stable = 0.0;
  std::size_t stable_bins = 0;
  for (std::size_t sec = (attack_s >= 5 ? attack_s - 4 : 1); sec < attack_s; ++sec) {
    stable += goodput_bps[sec];
    ++stable_bins;
  }
  result.stable_goodput_bps = stable_bins > 0 ? stable / static_cast<double>(stable_bins) : 1.0;
  if (result.stable_goodput_bps <= 0.0) result.stable_goodput_bps = 1.0;

  result.normalized.resize(seconds);
  for (std::size_t sec = 0; sec < seconds; ++sec) {
    result.normalized[sec] = goodput_bps[sec] / result.stable_goodput_bps;
  }

  // Attack-period summary (skip the first 3 s of the attack: every defense,
  // including the paper's, needs a detection window).
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t sec = attack_s + 3; sec < seconds; ++sec) {
    sum += result.normalized[sec];
    result.min_during_attack = std::min(result.min_during_attack, result.normalized[sec]);
    ++n;
  }
  result.mean_during_attack = n > 0 ? sum / static_cast<double>(n) : 0.0;

  result.rolls = s.attacker->rolls();
  result.policy_drops = net.total_policy_drops();
  result.events_processed = net.TotalEventsProcessed();
  if (s.sdn != nullptr) result.sdn_reconfigurations = s.sdn->reconfigurations();
  if (s.orchestrator != nullptr) {
    for (const auto& node : net.topology().nodes()) {
      if (node.kind != sim::NodeKind::kSwitch) continue;
      auto* det = s.orchestrator->lfa_detector(node.id);
      if (det != nullptr && det->alarm_raised_at() > 0) {
        if (result.first_alarm == 0 || det->alarm_raised_at() < result.first_alarm) {
          result.first_alarm = det->alarm_raised_at();
        }
      }
    }
  }

  if (recorder != nullptr) {
    telemetry::Recorder& rec = *recorder;
    net.CollectTelemetry(rec);
    if (s.orchestrator != nullptr) s.orchestrator->CollectTelemetry(rec);

    auto& m = rec.metrics();
    auto& normalized = m.GetSeries("fig3.normalized", kSecond);
    auto& goodput = m.GetSeries("fig3.goodput_bps", kSecond);
    for (std::size_t sec = 0; sec < seconds; ++sec) {
      normalized.Add(static_cast<SimTime>(sec) * kSecond, result.normalized[sec]);
      goodput.Add(static_cast<SimTime>(sec) * kSecond, goodput_bps[sec]);
    }
    m.GetGauge("fig3.stable_goodput_bps").Set(result.stable_goodput_bps);
    m.GetGauge("fig3.mean_during_attack").Set(result.mean_during_attack);
    m.GetGauge("fig3.min_during_attack").Set(result.min_during_attack);
    m.GetGauge("fig3.first_alarm_s").Set(ToSeconds(result.first_alarm));
    m.GetGauge("fig3.modes_active_s").Set(ToSeconds(result.modes_active_at));
    m.GetCounter("fig3.attacker_rolls").Set(result.rolls.size());
    m.GetCounter("fig3.sdn_reconfigurations")
        .Set(static_cast<std::uint64_t>(result.sdn_reconfigurations));
    auto& rolls = m.GetSeries("fig3.attacker_rolls", kSecond);
    for (const auto& roll : result.rolls) rolls.Add(roll.at, 1.0);

    // ---- In-band telemetry: hop-level diagnosis of the rolling attack ----
    const telemetry::IntCollector& ic = rec.int_collector();
    if (ic.HasData()) {
      result.int_journeys = ic.journeys();
      m.GetCounter("fig3.int.journeys").Set(ic.journeys());
      m.GetCounter("fig3.int.records").Set(ic.records());
      m.GetCounter("fig3.int.path_churn").Set(ic.path_churn_total());
      if (auto seen = ic.FirstModeObservation(dataplane::mode::kLfaReroute)) {
        result.int_reroute_seen_at = *seen;
        m.GetGauge("fig3.int.reroute_seen_s").Set(ToSeconds(*seen));
        if (result.first_alarm > 0 && *seen >= result.first_alarm) {
          // The paper's RTT-timescale claim, measured from inside the
          // packets: alarm raised -> reroute bit observed in a hop record.
          m.GetGauge("fig3.int.alarm_to_flip_ms")
              .Set(ToMillis(*seen - result.first_alarm));
        }
      }
      // One attack epoch per attacker roll: [attack_at, roll 1), [roll i,
      // roll i+1), ..., [last roll, end).  For each, the hop where queueing
      // concentrated according to the in-band records.
      std::vector<SimTime> bounds{attack_at};
      for (const auto& roll : result.rolls) bounds.push_back(roll.at);
      bounds.push_back(duration);
      for (std::size_t e = 0; e + 1 < bounds.size(); ++e) {
        auto hot = ic.HottestHop(bounds[e], bounds[e + 1]);
        if (!hot) continue;
        const std::string prefix = "fig3.int.epoch." + std::to_string(e);
        m.GetGauge(prefix + ".start_s").Set(ToSeconds(bounds[e]));
        m.GetGauge(prefix + ".hot_switch").Set(hot->switch_id);
        m.GetGauge(prefix + ".hot_queue_bytes")
            .Set(static_cast<double>(hot->max_queue_bytes));
      }
    }
    // The run is over; detach so the recorder cannot dangle past `net`.
    net.SetTelemetry(nullptr);
  }
  return result;
}

Fig3Result RunFig3(const Fig3Options& options) {
  BuiltScenario s = ScenarioBuilder()
                        .Seed(options.seed)
                        .Defense(options.defense)
                        .EnableInt(options.enable_int)
                        .Ablation(options.enable_obfuscation, options.enable_dropping)
                        .RerouteTuning(options.reroute_all, options.sticky_reroute)
                        .AttackAt(options.attack_at)
                        .AttackFlows(options.attack_flows)
                        .SdnEpoch(options.sdn_epoch)
                        .Record(options.recorder)
                        .Build();
  s.net->RunUntil(options.duration);
  return SummarizeFig3Run(s, options.duration, options.attack_at, options.recorder);
}

}  // namespace fastflex::scenarios
