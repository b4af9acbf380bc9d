// Deterministic-replay regression test: running the Figure 3 rolling-LFA
// scenario twice with the same seed must produce bit-identical telemetry
// JSON.  This pins the whole stack — event queue ordering, RNG streams,
// TCP dynamics, mode protocol, and the exporter — as a replayable function
// of (options, seed).  The SYN-flood replay's short run also checks what
// the export says about the split proxy: each per-switch counter copied
// from its module.  The scale-fabric replay pins the no-defense ring the
// benchmark's ring_tcp workload runs.
#include <gtest/gtest.h>

#include <string>

#include "scenarios/builder.h"
#include "scenarios/fig3.h"
#include "scenarios/scale_fig3.h"
#include "scenarios/syn_flood_fig.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"

namespace fastflex::scenarios {
namespace {

Fig3Options ShortRun(telemetry::Recorder* rec, std::uint64_t seed) {
  Fig3Options opt;
  opt.defense = DefenseKind::kFastFlex;
  opt.seed = seed;
  opt.duration = 30 * kSecond;  // long enough for attack + mode changes
  opt.attack_at = 8 * kSecond;
  opt.recorder = rec;
  return opt;
}

TEST(Replay, SameSeedProducesBitIdenticalTelemetryJson) {
  telemetry::Recorder rec1;
  const Fig3Result r1 = RunFig3(ShortRun(&rec1, 1));

  telemetry::Recorder rec2;
  const Fig3Result r2 = RunFig3(ShortRun(&rec2, 1));

  const std::string json1 = telemetry::ToJson(rec1);
  const std::string json2 = telemetry::ToJson(rec2);
  EXPECT_EQ(json1, json2) << "same-seed replay diverged";

  // The runs must actually have exercised the defense: the recorder is
  // only bit-identical in an interesting way if modes flipped and the
  // result series is populated.
  EXPECT_GT(rec1.trace().CountOf("mode_change"), 0u);
  // The attack fills some link past half its queue: the queue-spike
  // watermark replays too.
  EXPECT_GT(rec1.trace().CountOf("link.queue_spike"), 0u);
  EXPECT_FALSE(r1.normalized.empty());
  EXPECT_EQ(r1.normalized.size(), r2.normalized.size());
  EXPECT_GT(r1.first_alarm, 0);
  EXPECT_EQ(r1.first_alarm, r2.first_alarm);

  // Harvested artifacts the ISSUE pins: normalized series + link counters.
  EXPECT_NE(json1.find("\"fig3.normalized\""), std::string::npos);
  EXPECT_NE(json1.find("\"link.0.tx_packets\""), std::string::npos);

  // The in-band telemetry section: FastFlex runs deploy INT by default, the
  // alarm turns stamping on, so journeys must exist — and the `int` section
  // must replay bit-identically (asserted directly, in addition to the
  // full-JSON comparison above, so an exporter change cannot drop it
  // silently).
  EXPECT_NE(json1.find("\"int\":{\"journeys\":"), std::string::npos);
  EXPECT_GT(rec1.int_collector().journeys(), 0u);
  EXPECT_EQ(rec1.int_collector().journeys(), rec2.int_collector().journeys());
  EXPECT_EQ(rec1.int_collector().ToJsonSection(), rec2.int_collector().ToJsonSection());
  EXPECT_NE(json1.find("\"fig3.int.journeys\""), std::string::npos);

  // No SYN defense deployed: no switch carries split-proxy keys.
  EXPECT_EQ(json1.find("syn_proxy"), std::string::npos);
}

SynFloodFigOptions ShortSynRun(telemetry::Recorder* rec, std::uint64_t seed) {
  SynFloodFigOptions opt;
  opt.defense = DefenseKind::kFastFlex;
  opt.seed = seed;
  opt.duration = 20 * kSecond;
  opt.attack_at = 6 * kSecond;
  opt.flood.syn_rate_per_bot = 400.0;
  opt.flood.syn_rate_alarm = 500.0;
  // Sessions span ~0.5s-14s, straddling the 6s flood onset so a good chunk
  // of the handshakes run through the active proxy.
  opt.flood.sessions_per_client = 10;
  opt.flood.session_interval = 1500 * kMillisecond;
  opt.recorder = rec;
  return opt;
}

TEST(Replay, SynFloodSameSeedProducesBitIdenticalTelemetryJson) {
  // The split-proxy path adds RNG consumers (spoof-pool draws, per-bot
  // jitter), unordered containers, and a new telemetry section — all of
  // which must still replay as a pure function of (options, seed).
  telemetry::Recorder rec1;
  const SynFloodFigResult r1 = RunSynFloodFig(ShortSynRun(&rec1, 3));
  telemetry::Recorder rec2;
  const SynFloodFigResult r2 = RunSynFloodFig(ShortSynRun(&rec2, 3));

  const std::string json1 = telemetry::ToJson(rec1);
  EXPECT_EQ(json1, telemetry::ToJson(rec2)) << "same-seed syn replay diverged";

  // The replay is only interesting if the defense actually engaged.
  EXPECT_GT(r1.flood_syns, 0u);
  EXPECT_GT(r1.cookies_sent, 0u);
  EXPECT_GT(r1.handshakes_validated, 0u);
  EXPECT_GT(r1.modes_active_at, 0);
  EXPECT_GT(r1.established, 0);
  EXPECT_EQ(r1.established, r2.established);
  EXPECT_EQ(r1.delivered_bytes, r2.delivered_bytes);
  EXPECT_EQ(r1.flood_syns, r2.flood_syns);
  EXPECT_EQ(r1.filter_inserts, r2.filter_inserts);
  EXPECT_EQ(r1.events_processed, r2.events_processed);

  // The copied split-proxy counters and the harvested result gauges are
  // present.
  EXPECT_NE(json1.find(".syn_proxy.cookies_sent\":"), std::string::npos);
  EXPECT_NE(json1.find("\"synfig.established\""), std::string::npos);
  EXPECT_NE(json1.find("\"synfig.cookies_sent\""), std::string::npos);
}

TEST(Replay, SynModuleCountersCopiedPerSwitch) {
  // The SYN-defense counters live in the PPMs; the orchestrator's
  // CollectTelemetry copies them as switch.<id>.<module>.<counter>.  Built
  // exactly as RunSynFloodFig builds it, but kept alive so every key can be
  // checked against the module it was copied from.
  const SynFloodFigOptions opt = ShortSynRun(nullptr, 3);
  telemetry::Recorder rec;
  BuiltScenario s = ScenarioBuilder()
                        .Seed(opt.seed)
                        .Defense(opt.defense)
                        .EnableInt(opt.enable_int)
                        .AttackAt(opt.attack_at)
                        .SynFlood(opt.flood)
                        .SampleModes(dataplane::mode::kSynDefense)
                        .Record(&rec)
                        .Build();
  s.net->RunUntil(opt.duration);
  // A switch without the module has no key for it.
  const NodeId bare = s.h.m1;
  ASSERT_TRUE(s.orchestrator->pipeline(bare)->Uninstall("seq_translate"));
  // A crash wipe zeroes the filter's own counters, not the proxy's: the
  // export keeps the proxy's whole-run counts.
  const NodeId wiped = s.h.rv;
  const auto* wiped_proxy = s.orchestrator->syn_proxy(wiped);
  ASSERT_NE(wiped_proxy, nullptr);
  ASSERT_GT(wiped_proxy->filter_inserts(), 0u);
  ASSERT_GT(wiped_proxy->filter_deletes(), 0u);
  s.orchestrator->pipeline(wiped)->ResetState();
  ASSERT_EQ(wiped_proxy->filter().insertions(), 0u);
  ASSERT_EQ(wiped_proxy->filter().deletions(), 0u);
  s.orchestrator->CollectTelemetry(rec);
  s.net->SetTelemetry(nullptr);

  const auto& counters = rec.metrics().counters();
  auto key = [](NodeId sw, const char* module, const char* counter) {
    return telemetry::Join("switch", sw, module, counter);
  };
  auto expect_copied = [&](const std::string& name, std::uint64_t value) {
    const auto it = counters.find(name);
    ASSERT_NE(it, counters.end()) << name;
    EXPECT_EQ(it->second.value(), value) << name;
  };
  for (const auto& node : s.net->topology().nodes()) {
    if (node.kind != sim::NodeKind::kSwitch) continue;
    const NodeId sw = node.id;
    const auto* det = s.orchestrator->syn_rate_detector(sw);
    const auto* proxy = s.orchestrator->syn_proxy(sw);
    const auto* xlate = s.orchestrator->seq_translate(sw);
    ASSERT_NE(det, nullptr) << sw;
    ASSERT_NE(proxy, nullptr) << sw;
    expect_copied(key(sw, "syn_rate_detector", "raises_suppressed"), det->raises_suppressed());
    expect_copied(key(sw, "syn_proxy", "cookies_sent"), proxy->cookies_sent());
    expect_copied(key(sw, "syn_proxy", "handshakes_validated"), proxy->handshakes_validated());
    expect_copied(key(sw, "syn_proxy", "invalid_cookies"), proxy->invalid_cookies());
    expect_copied(key(sw, "syn_proxy", "filter_inserts"), proxy->filter_inserts());
    expect_copied(key(sw, "syn_proxy", "filter_insert_failures"),
                  proxy->filter_insert_failures());
    expect_copied(key(sw, "syn_proxy", "filter_deletes"), proxy->filter_deletes());
    expect_copied(key(sw, "syn_proxy", "idle_evictions"), proxy->idle_evictions());
    expect_copied(key(sw, "syn_proxy", "policed_drops"), proxy->policed_drops());
    expect_copied(key(sw, "syn_proxy", "admissions_policed"), proxy->admissions_policed());
    expect_copied(key(sw, "mode_protocol", "auth_rejects"),
                  s.orchestrator->agent(sw)->auth_rejects());
    if (sw == bare) {
      ASSERT_EQ(xlate, nullptr);
      const std::string prefix = telemetry::Join("switch", sw, "seq_translate");
      for (const auto& [name, counter] : counters) EXPECT_FALSE(name.starts_with(prefix)) << name;
      continue;
    }
    ASSERT_NE(xlate, nullptr) << sw;
    expect_copied(key(sw, "seq_translate", "translations_established"),
                  xlate->translations_established());
    expect_copied(key(sw, "seq_translate", "seq_translated"), xlate->seq_translated());
  }

  // Summed over switches, the exported keys of a RunSynFloodFig run equal
  // the totals it reports.
  telemetry::Recorder fig_rec;
  const SynFloodFigResult r = RunSynFloodFig(ShortSynRun(&fig_rec, 3));
  auto sum = [&](const std::string& suffix) {
    std::uint64_t total = 0;
    for (const auto& [name, counter] : fig_rec.metrics().counters()) {
      if (name.starts_with("switch.") && name.ends_with(suffix)) total += counter.value();
    }
    return total;
  };
  EXPECT_GT(r.cookies_sent, 0u);
  EXPECT_EQ(sum(".syn_proxy.cookies_sent"), r.cookies_sent);
  EXPECT_EQ(sum(".syn_proxy.handshakes_validated"), r.handshakes_validated);
  EXPECT_EQ(sum(".syn_proxy.invalid_cookies"), r.invalid_cookies);
  EXPECT_EQ(sum(".syn_proxy.filter_inserts"), r.filter_inserts);
  EXPECT_EQ(sum(".syn_proxy.filter_insert_failures"), r.filter_insert_failures);
  EXPECT_EQ(sum(".syn_proxy.policed_drops"), r.policed_drops);
  EXPECT_EQ(sum(".seq_translate.seq_translated"), r.seq_translated);
}

TEST(Replay, ScaleFabricSameSeedBitIdentical) {
  // ring_tcp's fabric (16 regions x 8 clients), shortened to 2 s: every TCP
  // flow has started and the ring links carry cross-region load.
  auto opts = [](telemetry::Recorder* rec) {
    ScaleFig3Options opt;
    opt.seed = 7;
    opt.duration = 2 * kSecond;
    opt.regions = 16;
    opt.clients_per_region = 8;
    opt.recorder = rec;
    return opt;
  };
  telemetry::Recorder rec1;
  const ScaleFig3Result r1 = RunScaleFig3(opts(&rec1));
  telemetry::Recorder rec2;
  const ScaleFig3Result r2 = RunScaleFig3(opts(&rec2));

  const std::string json1 = telemetry::ToJson(rec1);
  EXPECT_EQ(json1, telemetry::ToJson(rec2)) << "same-seed scale-fabric replay diverged";
  EXPECT_GT(r1.delivered_bytes, 0u);
  EXPECT_EQ(r1.delivered_bytes, r2.delivered_bytes);
  EXPECT_EQ(r1.events_processed, r2.events_processed);
  EXPECT_NE(json1.find("\"scale.delivered_bytes\""), std::string::npos);
}

TEST(Replay, DifferentSeedsDiverge) {
  // Guard against the exporter (or the scenario) ignoring its inputs: a
  // different seed must change the recorded telemetry.
  telemetry::Recorder rec1;
  RunFig3(ShortRun(&rec1, 1));
  telemetry::Recorder rec2;
  RunFig3(ShortRun(&rec2, 2));
  EXPECT_NE(telemetry::ToJson(rec1), telemetry::ToJson(rec2));
}

}  // namespace
}  // namespace fastflex::scenarios
