// Experiment-runner tests: sweep determinism across worker counts, per-cell
// seed independence, packet-pool recycling hygiene, and per-cell error
// containment.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "exp/sweep.h"
#include "sim/packet.h"
#include "sim/packet_pool.h"
#include "telemetry/int_record.h"
#include "util/rng.h"

namespace fastflex::exp {
namespace {

// A small real grid: 2 defenses x 2 replicas, 8 s of sim time.  Enough
// discrete events (~hundreds of thousands) that any nondeterminism in the
// parallel path would have astronomically small odds of escaping notice.
SweepSpec SmallFig3Spec() {
  Fig3GridOptions grid;
  grid.defenses = {scenarios::DefenseKind::kNone,
                   scenarios::DefenseKind::kFastFlex};
  grid.seeds_per_defense = 2;
  grid.duration = 8 * kSecond;
  grid.attack_at = 3 * kSecond;
  grid.attack_flows = 30;
  return BuildFig3Sweep("unit_grid", 42, grid);
}

TEST(SweepRunnerTest, ReportIsBitIdenticalAcrossThreadCounts) {
  const SweepSpec spec = SmallFig3Spec();
  const std::string one = Runner(RunnerOptions{.threads = 1}).Run(spec).ToJson();
  const std::string four = Runner(RunnerOptions{.threads = 4}).Run(spec).ToJson();
  const std::string eight = Runner(RunnerOptions{.threads = 8}).Run(spec).ToJson();
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);
  // And the artifact is not trivially empty: every cell produced a summary.
  const SweepReport report = Runner(RunnerOptions{.threads = 8}).Run(spec);
  EXPECT_EQ(report.ok_cells(), spec.cells.size());
  EXPECT_EQ(report.ToJson(), one);
  for (const auto& c : report.cells) {
    EXPECT_NE(c.artifact_json.find("events_processed"), std::string::npos);
  }
}

TEST(SweepRunnerTest, CellsAreIndexOrderedRegardlessOfCompletionOrder) {
  // Cells with wildly different costs: later (cheap) cells finish before
  // earlier (expensive) ones on a parallel run, but the report stays
  // index-ordered.
  SweepSpec spec;
  spec.name = "order";
  spec.base_seed = 7;
  for (int i = 0; i < 8; ++i) {
    const bool slow = i < 2;
    spec.cells.push_back(SweepCell{
        "cell" + std::to_string(i), [slow](std::uint64_t seed) {
          Rng rng(seed);
          std::uint64_t acc = 0;
          const int spins = slow ? 2'000'000 : 10;
          for (int s = 0; s < spins; ++s) acc += rng.Next() >> 60;
          return "{\"acc\": " + std::to_string(acc) + "}";
        }});
  }
  const SweepReport report = Runner(RunnerOptions{.threads = 8}).Run(spec);
  ASSERT_EQ(report.cells.size(), 8u);
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    EXPECT_EQ(report.cells[i].index, i);
    EXPECT_EQ(report.cells[i].name, "cell" + std::to_string(i));
    EXPECT_EQ(report.cells[i].seed, CellSeed(7, i));
  }
}

TEST(CellSeedTest, SeedsAreUniqueAcrossCellsAndAdjacentBases) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {1ull, 2ull, 42ull, 0xdeadbeefull}) {
    for (std::size_t i = 0; i < 512; ++i) seen.insert(CellSeed(base, i));
  }
  EXPECT_EQ(seen.size(), 4u * 512u);
  // Cell 0 is not the base seed itself (the base may seed something else).
  EXPECT_NE(CellSeed(1, 0), 1u);
}

TEST(CellSeedTest, PerCellRngStreamsAreIndependent) {
  // Adjacent cells' generators must not produce shifted copies of one
  // stream: compare windows of draws pairwise.
  Rng a(CellSeed(9, 0));
  Rng b(CellSeed(9, 1));
  std::vector<std::uint64_t> da, db;
  for (int i = 0; i < 256; ++i) {
    da.push_back(a.Next());
    db.push_back(b.Next());
  }
  int collisions = 0;
  for (std::uint64_t x : da) {
    for (std::uint64_t y : db) {
      if (x == y) ++collisions;
    }
  }
  EXPECT_EQ(collisions, 0);
}

TEST(PacketPoolTest, RecycledSlotIsPristine) {
  sim::PacketPool pool;
  const sim::PacketPool::Handle h = pool.Acquire();
  sim::Packet& p = *pool.Get(h);
  p.kind = sim::PacketKind::kProbe;
  p.flow = 99;
  p.src = 7;
  p.dst = 8;
  p.ttl = 3;
  p.size_bytes = 64;
  p.seq = 1234;
  p.SetTag(sim::tag::kSuspicion, 77);
  p.SetTag(sim::tag::kSackBitmap, 0xff);
  p.probe = std::make_shared<sim::ProbePayload>();
  p.int_stack.GetOrCreate().Push(telemetry::IntHopRecord{});
  pool.Release(h);

  // LIFO freelist: the next acquire hands the same slot back — scrubbed.
  const sim::PacketPool::Handle h2 = pool.Acquire();
  EXPECT_EQ(h2, h);
  const sim::Packet& q = *pool.Get(h2);
  EXPECT_EQ(q.kind, sim::PacketKind::kData);
  EXPECT_EQ(q.flow, kInvalidFlow);
  EXPECT_EQ(q.src, 0u);
  EXPECT_EQ(q.dst, 0u);
  EXPECT_EQ(q.ttl, 64);
  EXPECT_EQ(q.size_bytes, 1500u);
  EXPECT_EQ(q.seq, 0u);
  EXPECT_TRUE(q.tags.empty());
  EXPECT_FALSE(q.HasTag(sim::tag::kSuspicion));
  EXPECT_EQ(q.probe, nullptr);
  EXPECT_FALSE(static_cast<bool>(q.int_stack));
}

TEST(PacketPoolTest, StatsTrackAcquiresRecyclesAndInFlight) {
  sim::PacketPool pool;
  const auto a = pool.Acquire();
  const auto b = pool.Acquire();
  EXPECT_EQ(pool.acquires(), 2u);
  EXPECT_EQ(pool.recycled(), 0u);
  EXPECT_EQ(pool.slots(), 2u);
  EXPECT_EQ(pool.in_flight(), 2u);
  pool.Release(a);
  EXPECT_EQ(pool.in_flight(), 1u);
  const auto c = pool.Acquire();
  EXPECT_EQ(c, a);  // recycled, not grown
  EXPECT_EQ(pool.acquires(), 3u);
  EXPECT_EQ(pool.recycled(), 1u);
  EXPECT_EQ(pool.slots(), 2u);
  EXPECT_EQ(pool.in_flight(), 2u);
  pool.Release(b);
  pool.Release(c);
  EXPECT_EQ(pool.in_flight(), 0u);
}

TEST(SweepRunnerTest, CrashingCellIsContained) {
  SweepSpec spec;
  spec.name = "contains_errors";
  spec.base_seed = 3;
  for (int i = 0; i < 6; ++i) {
    spec.cells.push_back(SweepCell{
        "c" + std::to_string(i), [i](std::uint64_t) -> std::string {
          if (i == 2) throw std::runtime_error("cell exploded");
          return "{\"ok\": " + std::to_string(i) + "}";
        }});
  }
  const SweepReport report = Runner(RunnerOptions{.threads = 3}).Run(spec);
  EXPECT_EQ(report.ok_cells(), 5u);
  EXPECT_FALSE(report.cells[2].ok);
  EXPECT_EQ(report.cells[2].error, "cell exploded");
  EXPECT_TRUE(report.cells[2].artifact_json.empty());
  for (std::size_t i = 0; i < 6; ++i) {
    if (i == 2) continue;
    EXPECT_TRUE(report.cells[i].ok) << i;
  }
  // The error cell serializes with an "error" field, not an artifact.
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"error\": \"cell exploded\""), std::string::npos);
}

TEST(SweepReportTest, JsonEscapesAndRoundTripsStructure) {
  SweepSpec spec;
  spec.name = "quote\"and\\slash";
  spec.base_seed = 1;
  spec.cells.push_back(SweepCell{
      "only", [](std::uint64_t) -> std::string {
        throw std::runtime_error("line1\nline2\ttab");
      }});
  const SweepReport report = Runner(RunnerOptions{.threads = 1}).Run(spec);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"quote\\\"and\\\\slash\""), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2\\ttab"), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
}

}  // namespace
}  // namespace fastflex::exp
