// Unit tests for the telemetry subsystem: registry get-or-create identity,
// name building, tracer events/spans, and the JSON exporter.
#include <gtest/gtest.h>

#include "telemetry/export.h"
#include "telemetry/telemetry.h"

namespace fastflex::telemetry {
namespace {

TEST(MetricsRegistry, GetOrCreateReturnsSameInstance) {
  MetricsRegistry reg;
  Counter& c1 = reg.GetCounter("a.b");
  c1.Inc(3);
  Counter& c2 = reg.GetCounter("a.b");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.value(), 3u);

  Gauge& g1 = reg.GetGauge("a.b");  // same name, different family: distinct
  g1.Set(1.5);
  EXPECT_EQ(reg.GetCounter("a.b").value(), 3u);
  EXPECT_DOUBLE_EQ(reg.GetGauge("a.b").value(), 1.5);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_TRUE(reg.Has("a.b"));
  EXPECT_FALSE(reg.Has("a.c"));
}

TEST(MetricsRegistry, CreationParamsApplyOnlyOnFirstUse) {
  MetricsRegistry reg;
  TimeSeries& s = reg.GetSeries("x", 100);
  EXPECT_EQ(s.bin_width(), 100);
  // Second lookup with a different width returns the original.
  EXPECT_EQ(&reg.GetSeries("x", 999), &s);
  EXPECT_EQ(reg.GetSeries("x", 999).bin_width(), 100);
}

TEST(MetricsRegistry, ReferencesSurviveLaterInsertions) {
  // Hot paths cache references; inserting thousands of other metrics must
  // not invalidate them (std::map node stability).
  MetricsRegistry reg;
  Counter& pinned = reg.GetCounter("pinned");
  for (int i = 0; i < 2000; ++i) reg.GetCounter(Join("filler", i));
  pinned.Inc();
  EXPECT_EQ(reg.GetCounter("pinned").value(), 1u);
}

TEST(MetricsRegistry, JoinBuildsDottedNames) {
  EXPECT_EQ(Join("link", 3, "tx"), "link.3.tx");
  EXPECT_EQ(Join("solo"), "solo");
  EXPECT_EQ(Join(std::string("a"), std::string("b")), "a.b");
  EXPECT_EQ(Join("switch", NodeId{12}, "pipeline", "walks"), "switch.12.pipeline.walks");
}

TEST(Tracer, EventsAndSpans) {
  Tracer tr;
  tr.Event(5, "alarm", {{"switch", 2}, {"on", 1}});
  tr.Event(9, "alarm", {{"switch", 3}, {"on", 1}});
  tr.Event(7, "other");
  EXPECT_EQ(tr.CountOf("alarm"), 2u);
  EXPECT_EQ(tr.CountOf("missing"), 0u);
  const auto alarms = tr.EventsNamed("alarm");
  ASSERT_EQ(alarms.size(), 2u);
  EXPECT_EQ(alarms[0]->t, 5);
  EXPECT_EQ(alarms[1]->t, 9);
  ASSERT_EQ(alarms[0]->fields.size(), 2u);
  EXPECT_EQ(alarms[0]->fields[0].key, "switch");
  EXPECT_EQ(alarms[0]->fields[0].value, 2);

  const std::uint64_t id = tr.OpenSpan(10, "repurpose", {{"victim", 1}});
  ASSERT_EQ(tr.spans().size(), 1u);
  EXPECT_TRUE(tr.spans()[0].open());
  tr.CloseSpan(id, 30, {{"packets", 4}});
  EXPECT_FALSE(tr.spans()[0].open());
  EXPECT_EQ(tr.spans()[0].duration(), 20);
  ASSERT_EQ(tr.spans()[0].fields.size(), 2u);
  EXPECT_EQ(tr.spans()[0].fields[1].key, "packets");

  // Double close and unknown ids are ignored.
  tr.CloseSpan(id, 99);
  EXPECT_EQ(tr.spans()[0].end, 30);
  tr.CloseSpan(424242, 99);
}

TEST(Export, JsonContainsAllFamiliesAndSchema) {
  Recorder rec;
  auto& m = rec.metrics();
  m.GetCounter("c.one").Inc(7);
  m.GetGauge("g.one").Set(0.25);
  m.GetSummary("s.one").Add(1.0);
  m.GetSummary("s.one").Add(3.0);
  m.GetSeries("ts.one", kSecond).Add(1500 * kMillisecond, 4.0);
  rec.trace().Event(3, "evt", {{"k", -5}});
  const std::uint64_t id = rec.trace().OpenSpan(1, "sp");
  rec.trace().CloseSpan(id, 2);

  const std::string json = ToJson(rec);
  EXPECT_NE(json.find("\"schema\":\"fastflex.telemetry.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"c.one\":7"), std::string::npos);
  EXPECT_NE(json.find("\"g.one\":0.25"), std::string::npos);
  EXPECT_NE(json.find("\"s.one\""), std::string::npos);
  EXPECT_NE(json.find("\"ts.one\""), std::string::npos);
  EXPECT_NE(json.find("\"evt\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":-5"), std::string::npos);
  EXPECT_NE(json.find("\"sp\""), std::string::npos);

  // Serialization is a pure function of the recorder contents.
  EXPECT_EQ(json, ToJson(rec));
}

TEST(Export, JsonEscapesStrings) {
  Recorder rec;
  rec.metrics().GetCounter("weird\"name\\with\nstuff").Inc();
  const std::string json = ToJson(rec);
  EXPECT_NE(json.find("weird\\\"name\\\\with\\nstuff"), std::string::npos);
}

}  // namespace
}  // namespace fastflex::telemetry
