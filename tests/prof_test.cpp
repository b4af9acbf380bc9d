// Unit tests for the self-observability layer: the sampling profiler
// (exact site counts, subtree sampling, the deterministic export view) and
// the exporter edge cases the replay-identity guarantee leans on (prof
// section isolation, optional sections).
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <string>

#include "telemetry/export.h"
#include "telemetry/prof.h"
#include "telemetry/telemetry.h"

namespace fastflex::telemetry {
namespace {

// ---------------------------------------------------------------- Profiler

TEST(Profiler, DisabledProfilerIsInert) {
  Profiler prof;
  EXPECT_FALSE(prof.enabled());
  EXPECT_EQ(prof.enabled_self(), nullptr);
  // The pattern every hook site uses: a scope on the cached (null) pointer.
  { ProfScope scope(prof.enabled_self(), ProfSite::kPipelineWalk); }
  EXPECT_EQ(prof.CallsAt(ProfSite::kPipelineWalk), 0u);
  EXPECT_FALSE(prof.HasData());
}

TEST(Profiler, EnableRoundsStrideUpToPowerOfTwo) {
  Profiler p1;
  p1.Enable(100);
  EXPECT_EQ(p1.stride(), 128u);
  Profiler p2;
  p2.Enable(1);
  EXPECT_EQ(p2.stride(), 1u);
  Profiler p3;
  p3.Enable(0);  // degenerate request still yields a usable sampler
  EXPECT_EQ(p3.stride(), 1u);
  // Enable pre-creates the top-level node of every site.
  EXPECT_EQ(p1.nodes().size(), Profiler::kSiteCount);
}

TEST(Profiler, CallCountsAreExactSamplesAreStrided) {
  Profiler prof;
  prof.Enable(256);
  for (int i = 0; i < 1000; ++i) {
    ProfScope scope(prof.enabled_self(), ProfSite::kPipelineWalk);
  }
  // Every entry counts; entries 0, 256, 512, 768 sample.
  EXPECT_EQ(prof.CallsAt(ProfSite::kPipelineWalk), 1000u);
  std::uint64_t walk_samples = 0;
  for (const auto& n : prof.nodes()) {
    if (n.site == ProfSite::kPipelineWalk && n.parent == nullptr)
      walk_samples = n.samples;
  }
  EXPECT_EQ(walk_samples, 4u);
  EXPECT_TRUE(prof.HasData());
}

TEST(Profiler, StrideOneSamplesEveryEntry) {
  Profiler prof;
  prof.Enable(1);
  for (int i = 0; i < 10; ++i) {
    ProfScope scope(prof.enabled_self(), ProfSite::kHostStack);
  }
  for (const auto& n : prof.nodes()) {
    if (n.site == ProfSite::kHostStack && n.parent == nullptr) {
      EXPECT_EQ(n.samples, 10u);
    }
  }
}

TEST(Profiler, SampledEntryCapturesItsSubtree) {
  Profiler prof;
  prof.Enable(256);
  {
    // Entry 0 of kEventDispatch samples; the nested walk scope must ride
    // the open sample into a child node even though its own site counter
    // (also 0... but nested-under-a-sample short-circuits the stride test).
    ProfScope outer(prof.enabled_self(), ProfSite::kEventDispatch);
    ProfScope inner(prof.enabled_self(), ProfSite::kPipelineWalk);
  }
  {
    // Entry 1 of kEventDispatch does NOT sample; its nested scope is then a
    // top-level entry for kPipelineWalk (counter 1: not sampled either).
    ProfScope outer(prof.enabled_self(), ProfSite::kEventDispatch);
    ProfScope inner(prof.enabled_self(), ProfSite::kPipelineWalk);
  }
  EXPECT_EQ(prof.CallsAt(ProfSite::kEventDispatch), 2u);
  EXPECT_EQ(prof.CallsAt(ProfSite::kPipelineWalk), 2u);
  bool found_child = false;
  for (std::size_t i = 0; i < prof.nodes().size(); ++i) {
    const auto& n = prof.nodes()[i];
    if (n.site == ProfSite::kPipelineWalk && n.parent != nullptr) {
      found_child = true;
      EXPECT_EQ(n.parent->site, ProfSite::kEventDispatch);
      EXPECT_EQ(n.samples, 1u);
      EXPECT_EQ(prof.PathOf(i), "event_dispatch.pipeline_walk");
    }
  }
  EXPECT_TRUE(found_child);
}

TEST(Profiler, EveryScopeInsideASampleSamplesUntilItCloses) {
  Profiler prof;
  prof.Enable(256);
  { ProfScope host(prof.enabled_self(), ProfSite::kHostStack); }  // host entry 0 samples
  {
    ProfScope outer(prof.enabled_self(), ProfSite::kEventDispatch);  // entry 0 samples
    { ProfScope walk(prof.enabled_self(), ProfSite::kPipelineWalk); }
    // A nested scope closing does not end the outer sample: host entry 1
    // samples because the sample is still open.
    { ProfScope host(prof.enabled_self(), ProfSite::kHostStack); }
  }
  // Back at top level the stride rules again: host entry 2 does not sample.
  { ProfScope host(prof.enabled_self(), ProfSite::kHostStack); }

  std::map<std::string, std::uint64_t> samples;
  for (std::size_t i = 0; i < prof.nodes().size(); ++i) {
    samples[prof.PathOf(i)] = prof.nodes()[i].samples;
  }
  EXPECT_EQ(samples["event_dispatch"], 1u);
  EXPECT_EQ(samples["event_dispatch.pipeline_walk"], 1u);
  EXPECT_EQ(samples["event_dispatch.host_stack"], 1u);
  EXPECT_EQ(samples["host_stack"], 1u);
  EXPECT_EQ(prof.CallsAt(ProfSite::kHostStack), 3u);
}

TEST(Profiler, TreeSaturationFallsBackToRootNodes) {
  Profiler prof;
  prof.Enable(1);  // sample everything: deep nesting creates chain nodes
  // Recursive alternating nesting grows a fresh node per depth until the
  // arena cap; past it, scopes must attribute to root nodes, not grow.
  std::function<void(int)> nest = [&](int depth) {
    if (depth == 0) return;
    ProfScope scope(prof.enabled_self(), depth % 2 == 0
                                             ? ProfSite::kPipelineWalk
                                             : ProfSite::kHostStack);
    nest(depth - 1);
  };
  nest(2000);
  EXPECT_EQ(prof.nodes().size(), Profiler::kMaxNodes);
  EXPECT_EQ(prof.CallsAt(ProfSite::kPipelineWalk) +
                prof.CallsAt(ProfSite::kHostStack),
            2000u);
}

TEST(Profiler, QueueOccupancySummary) {
  Profiler prof;
  prof.Enable();
  prof.QueueOccupancy(10);
  prof.QueueOccupancy(30);
  EXPECT_EQ(prof.occupancy().count(), 2u);
  EXPECT_DOUBLE_EQ(prof.occupancy().mean(), 20.0);
  EXPECT_DOUBLE_EQ(prof.occupancy().max(), 30.0);
}

TEST(Profiler, DeterministicViewOmitsWallClock) {
  Profiler prof;
  prof.Enable(1);
  { ProfScope scope(prof.enabled_self(), ProfSite::kPipelineWalk); }
  prof.RecordExportNs(1234);
  const std::string wall = prof.ToJsonSection(/*include_wall=*/true);
  const std::string det = prof.ToJsonSection(/*include_wall=*/false);
  EXPECT_NE(wall.find("\"sampled_ns\""), std::string::npos);
  EXPECT_NE(wall.find("\"est_ns\""), std::string::npos);
  EXPECT_NE(wall.find("\"export_ns\""), std::string::npos);
  EXPECT_EQ(det.find("\"sampled_ns\""), std::string::npos);
  EXPECT_EQ(det.find("\"est_ns\""), std::string::npos);
  EXPECT_EQ(det.find("\"export_ns\""), std::string::npos);
  // Counts survive in both views.
  EXPECT_NE(det.find("\"calls\":1"), std::string::npos);
}

TEST(Profiler, EstimateScalesSampledTimeByStride) {
  Profiler prof;
  prof.Enable(256);
  Profiler::Node n;
  n.sampled_ns = 1000;
  EXPECT_DOUBLE_EQ(prof.EstimateNs(n), 256000.0);
}

TEST(Profiler, RareTopLevelSiteEstimatesItsCallsNotTheStride) {
  // A site entered twice at top level samples its first entry only, so
  // that one sample stands for 2 entries, not 256.  A node nested in the
  // sample shares its root's weight.
  Profiler prof;
  prof.Enable(256);
  auto busy = [] {  // long enough for the clock to advance
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - t0 < std::chrono::microseconds(20)) {
    }
  };
  for (int i = 0; i < 2; ++i) {
    ProfScope scope(prof.enabled_self(), ProfSite::kExport);
    busy();
    ProfScope nested(prof.enabled_self(), ProfSite::kHostStack);
    busy();
  }
  const Profiler::Node* root = nullptr;
  const Profiler::Node* child = nullptr;
  for (const auto& n : prof.nodes()) {
    if (n.site == ProfSite::kExport && n.parent == nullptr) root = &n;
    if (n.site == ProfSite::kHostStack && n.parent != nullptr) child = &n;
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(prof.CallsAt(ProfSite::kExport), 2u);
  ASSERT_EQ(root->samples, 1u);
  ASSERT_GT(root->sampled_ns, 0u);
  ASSERT_GT(child->sampled_ns, 0u);
  EXPECT_DOUBLE_EQ(prof.EstimateNs(*root), 2.0 * static_cast<double>(root->sampled_ns));
  EXPECT_DOUBLE_EQ(prof.EstimateNs(*child), 2.0 * static_cast<double>(child->sampled_ns));
}

// ----------------------------------------------------------- Export edges

TEST(Export, EmptyRecorderOmitsOptionalSections) {
  Recorder rec;
  const std::string json = ToJson(rec);
  EXPECT_NE(json.find("\"counters\":{}"), std::string::npos);
  EXPECT_NE(json.find("\"events\":[]"), std::string::npos);
  // Optional sections stay out until they carry data: artifact bytes of a
  // feature-free run never change when a feature ships.
  EXPECT_EQ(json.find("\"int\":"), std::string::npos);
  EXPECT_EQ(json.find("\"fault."), std::string::npos);
  EXPECT_EQ(json.find("syn_proxy"), std::string::npos);
  EXPECT_EQ(json.find("\"prof\":"), std::string::npos);
  // The registry has no EWMA or histogram kind, so neither key appears.
  EXPECT_EQ(json.find("\"ewmas\""), std::string::npos);
  EXPECT_EQ(json.find("\"histograms\""), std::string::npos);
}

TEST(Export, ProfSectionOnlyWhenEnabledAndRequested) {
  Recorder rec;
  EXPECT_EQ(ToJson(rec).find("\"prof\":"), std::string::npos);  // disabled

  rec.prof().Enable();
  { ProfScope scope(rec.prof().enabled_self(), ProfSite::kPipelineWalk); }
  EXPECT_NE(ToJson(rec).find("\"prof\":"), std::string::npos);
  // Replay comparisons serialize with the section off.
  EXPECT_EQ(ToJson(rec, ExportOptions{.include_prof = false}).find("\"prof\":"),
            std::string::npos);
}

TEST(Export, NonProfSectionsByteIdenticalProfOnVsOff) {
  // Two recorders fed the exact same telemetry; one also profiles.  With
  // the prof section excluded the documents must match byte for byte —
  // the in-test version of the bench_prof determinism gate.
  auto feed = [](Recorder& rec) {
    auto& m = rec.metrics();
    m.GetCounter("walks").Inc(42);
    m.GetGauge("mode").Set(3.0);
    m.GetSeries("goodput", kSecond).Add(2 * kSecond, 0.75);
    m.GetSummary("cwnd").Add(3.5);
    m.GetSummary("cwnd").Add(49.0);
    rec.trace().Event(5, "alarm", {{"switch", 2}});
    rec.trace().Event(6, "link.queue_spike", {{"link", 3}, {"queued", 900}, {"capacity", 1000}});
  };
  Recorder off;
  Recorder on;
  on.prof().Enable();
  feed(off);
  feed(on);
  {  // profiling activity that must not leak into non-prof sections
    ProfScope s1(on.prof().enabled_self(), ProfSite::kEventDispatch);
    ProfScope s2(on.prof().enabled_self(), ProfSite::kPipelineWalk);
    on.prof().QueueOccupancy(17);
  }
  const ExportOptions no_prof{.include_prof = false};
  EXPECT_EQ(ToJson(off, no_prof), ToJson(on, no_prof));
  EXPECT_NE(ToJson(off, no_prof), ToJson(on));  // full export does differ
}

TEST(Export, ExporterMeasuresItselfWithoutSelfReference) {
  Recorder rec;
  rec.prof().Enable();
  rec.metrics().GetCounter("c").Inc();
  (void)ToJson(rec);
  // The export scope ran once; its wall time went to RecordExportNs (out
  // of tree), so the prof section never times its own serialization.
  EXPECT_EQ(rec.prof().CallsAt(ProfSite::kExport), 1u);
}

}  // namespace
}  // namespace fastflex::telemetry
