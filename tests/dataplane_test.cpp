// Data-plane model tests: resource vectors, pipeline admission control,
// module sharing, mode gating, flow tables, meters.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "boosters/shared_ppms.h"
#include "dataplane/flow_table.h"
#include "dataplane/meter.h"
#include "dataplane/pipeline.h"
#include "dataplane/resources.h"

namespace fastflex::dataplane {
namespace {

TEST(ResourceVectorTest, ArithmeticAndFits) {
  ResourceVector a{2, 1.5, 100, 4};
  ResourceVector b{1, 0.5, 28, 2};
  ResourceVector sum = a + b;
  EXPECT_DOUBLE_EQ(sum.stages, 3.0);
  EXPECT_DOUBLE_EQ(sum.sram_mb, 2.0);
  EXPECT_DOUBLE_EQ(sum.tcam_entries, 128.0);
  EXPECT_DOUBLE_EQ(sum.alus, 6.0);
  EXPECT_TRUE(sum.FitsIn(ResourceVector{3, 2, 128, 6}));
  EXPECT_FALSE(sum.FitsIn(ResourceVector{2.9, 2, 128, 6}));
  ResourceVector diff = sum - b;
  EXPECT_DOUBLE_EQ(diff.stages, a.stages);
}

TEST(ResourceVectorTest, MaxRatioIdentifiesBindingDimension) {
  ResourceVector demand{6, 10, 0, 4};
  ResourceVector cap{12, 20, 1000, 4};
  EXPECT_DOUBLE_EQ(demand.MaxRatio(cap), 1.0);  // ALUs bind
  ResourceVector impossible{0, 0, 1, 0};
  ResourceVector no_tcam{12, 20, 0, 4};
  EXPECT_GT(impossible.MaxRatio(no_tcam), 1.0);
}

TEST(ResourceVectorTest, ZeroAndDefaults) {
  EXPECT_TRUE(ResourceVector{}.IsZero());
  EXPECT_FALSE(DefaultSwitchCapacity().IsZero());
  EXPECT_TRUE(ResourceVector{}.FitsIn(DefaultSwitchCapacity()));
}

/// A trivial PPM that counts packets and optionally drops them.
class CountingPpm : public Ppm {
 public:
  CountingPpm(std::string name, ResourceVector demand, std::uint32_t required_mode,
              bool drop = false)
      : Ppm(std::move(name), PpmSignature{PpmKind::kMeter, {demand.alus > 0 ? 1u : 0u}},
            demand, required_mode),
        drop_(drop) {}
  void Process(sim::PacketContext& ctx) override {
    ++seen_;
    if (drop_) ctx.drop = true;
  }
  int seen() const { return seen_; }

 private:
  bool drop_;
  int seen_ = 0;
};

sim::PacketContext MakeContext(sim::Packet& pkt) {
  return sim::PacketContext{pkt, nullptr, kInvalidLink, 0, false, false, kInvalidNode, {}};
}

TEST(PipelineTest, AdmissionControlRejectsOversizedModules) {
  Pipeline pipe(ResourceVector{4, 4, 0, 8});
  EXPECT_TRUE(pipe.Install(std::make_shared<CountingPpm>("a", ResourceVector{2, 2, 0, 4},
                                                         mode::kAlwaysOn)));
  EXPECT_TRUE(pipe.Install(std::make_shared<CountingPpm>("b", ResourceVector{2, 2, 0, 4},
                                                         mode::kAlwaysOn)));
  // Third module exceeds the stage budget.
  EXPECT_FALSE(pipe.Install(std::make_shared<CountingPpm>("c", ResourceVector{1, 0, 0, 0},
                                                          mode::kAlwaysOn)));
  EXPECT_DOUBLE_EQ(pipe.used().stages, 4.0);
}

TEST(PipelineTest, UninstallFreesResources) {
  Pipeline pipe(ResourceVector{4, 4, 0, 8});
  pipe.Install(std::make_shared<CountingPpm>("a", ResourceVector{4, 4, 0, 8}, mode::kAlwaysOn));
  EXPECT_FALSE(pipe.CanFit(ResourceVector{1, 0, 0, 0}));
  EXPECT_TRUE(pipe.Uninstall("a"));
  EXPECT_TRUE(pipe.used().IsZero());
  EXPECT_FALSE(pipe.Uninstall("a"));  // already gone
}

TEST(PipelineTest, InstallSharedDeduplicatesBySignature) {
  Pipeline pipe(DefaultSwitchCapacity());
  auto first = pipe.InstallShared(std::make_shared<boosters::SuspiciousSrcBloomPpm>());
  auto second = pipe.InstallShared(std::make_shared<boosters::SuspiciousSrcBloomPpm>());
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());  // the same instance serves both
  EXPECT_EQ(pipe.modules().size(), 1u);
}

TEST(PipelineTest, InstallSharedDistinguishesDifferentParameters) {
  Pipeline pipe(DefaultSwitchCapacity());
  auto a = pipe.InstallShared(std::make_shared<boosters::SuspiciousSrcBloomPpm>(4096, 3));
  auto b = pipe.InstallShared(std::make_shared<boosters::SuspiciousSrcBloomPpm>(8192, 3));
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(pipe.modules().size(), 2u);
}

TEST(PipelineTest, ModeGatingSkipsInactiveModules) {
  Pipeline pipe(DefaultSwitchCapacity());
  auto always = std::make_shared<CountingPpm>("always", ResourceVector{}, mode::kAlwaysOn);
  auto gated = std::make_shared<CountingPpm>("gated", ResourceVector{}, mode::kLfaDrop);
  pipe.Install(always);
  pipe.Install(gated);

  sim::Packet pkt;
  auto ctx = MakeContext(pkt);
  pipe.Process(ctx);
  EXPECT_EQ(always->seen(), 1);
  EXPECT_EQ(gated->seen(), 0);

  pipe.ActivateMode(mode::kLfaDrop);
  auto ctx2 = MakeContext(pkt);
  pipe.Process(ctx2);
  EXPECT_EQ(gated->seen(), 1);

  pipe.DeactivateMode(mode::kLfaDrop);
  auto ctx3 = MakeContext(pkt);
  pipe.Process(ctx3);
  EXPECT_EQ(gated->seen(), 1);
}

TEST(PipelineTest, ModeWordBitOperations) {
  Pipeline pipe(DefaultSwitchCapacity());
  pipe.ActivateMode(mode::kLfaReroute | mode::kLfaDrop);
  EXPECT_TRUE(pipe.ModeActive(mode::kLfaReroute));
  EXPECT_TRUE(pipe.ModeActive(mode::kLfaDrop));
  EXPECT_FALSE(pipe.ModeActive(mode::kVolumetricFilter));
  pipe.DeactivateMode(mode::kLfaDrop);
  EXPECT_TRUE(pipe.ModeActive(mode::kLfaReroute));
  EXPECT_FALSE(pipe.ModeActive(mode::kLfaDrop));
}

TEST(PipelineTest, ProcessingStopsAtDrop) {
  Pipeline pipe(DefaultSwitchCapacity());
  auto dropper =
      std::make_shared<CountingPpm>("dropper", ResourceVector{}, mode::kAlwaysOn, true);
  auto after = std::make_shared<CountingPpm>("after", ResourceVector{}, mode::kAlwaysOn);
  pipe.Install(dropper);
  pipe.Install(after);
  sim::Packet pkt;
  auto ctx = MakeContext(pkt);
  pipe.Process(ctx);
  EXPECT_TRUE(ctx.drop);
  EXPECT_EQ(after->seen(), 0);
}

TEST(PipelineTest, FindByNameAndSignature) {
  Pipeline pipe(DefaultSwitchCapacity());
  auto bloom = std::make_shared<boosters::SuspiciousSrcBloomPpm>();
  const PpmSignature sig = bloom->signature();
  pipe.Install(bloom);
  EXPECT_NE(pipe.Find("suspicious_src_bloom"), nullptr);
  EXPECT_EQ(pipe.Find("nonexistent"), nullptr);
  EXPECT_EQ(pipe.FindBySignature(sig), bloom.get());
}

TEST(PipelineTest, ClearResetsResources) {
  Pipeline pipe(DefaultSwitchCapacity());
  pipe.Install(std::make_shared<boosters::ParserPpm>());
  pipe.ActivateMode(mode::kLfaDrop);
  pipe.Clear();
  EXPECT_TRUE(pipe.modules().empty());
  EXPECT_TRUE(pipe.used().IsZero());
  EXPECT_TRUE(pipe.ModeActive(mode::kLfaDrop));  // modes survive reprogramming
}

TEST(FlowTableTest, LookupCreatesAndFinds) {
  FlowTable table(64);
  FlowState* a = table.Lookup(123, kSecond);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->key, 123u);
  a->packets = 7;
  FlowState* again = table.Lookup(123, 2 * kSecond);
  EXPECT_EQ(again->packets, 7u);
  EXPECT_EQ(table.installs(), 1u);
}

TEST(FlowTableTest, LiveCollisionLeavesNewFlowUntracked) {
  FlowTable table(1, /*stale_timeout=*/kSecond);  // every key collides
  FlowState* a = table.Lookup(1, 0);
  ASSERT_NE(a, nullptr);
  a->last_seen = 0;
  // Within the stale timeout the incumbent holds the slot.
  EXPECT_EQ(table.Lookup(2, 500 * kMillisecond), nullptr);
  // After it goes stale the new flow takes over.
  FlowState* b = table.Lookup(2, 2 * kSecond);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->key, 2u);
}

TEST(FlowTableTest, PeekDoesNotInsert) {
  FlowTable table(64);
  EXPECT_EQ(table.Peek(55), nullptr);
  table.Lookup(55, 0);
  EXPECT_NE(table.Peek(55), nullptr);
  EXPECT_EQ(table.installs(), 1u);
}

TEST(FlowTableTest, ForEachVisitsOccupiedOnly) {
  FlowTable table(64);
  table.Lookup(1, 0);
  table.Lookup(2, 0);
  int visited = 0;
  table.ForEach([&](const FlowState&) { ++visited; });
  EXPECT_EQ(visited, 2);
}

// Model check of the live-slot list behind ForEach: a seeded random run of
// Lookups at advancing times (so stale incumbents get replaced), Resets and
// imports from a second table, on 8 slots so keys collide.  After every
// operation ForEach must visit exactly the occupied slots ExportWords()
// lists, each once.
TEST(FlowTableTest, ForEachVisitsEachOccupiedSlotOnceUnderChurn) {
  FlowTable table(8, /*stale_timeout=*/kSecond);
  FlowTable donor(8, /*stale_timeout=*/kSecond);
  auto visited = [&] {
    std::vector<std::uint64_t> keys;
    table.ForEach([&](const FlowState& fs) { keys.push_back(fs.key); });
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  auto exported = [&] {
    const std::vector<std::uint64_t> words = table.ExportWords();
    std::vector<std::uint64_t> keys;
    for (std::size_t i = 0; i < words.size(); i += 4) keys.push_back(words[i]);
    std::sort(keys.begin(), keys.end());
    return keys;
  };

  std::mt19937_64 rng(20261018);
  SimTime now = 0;
  int stale_replacements = 0;
  int imports_onto_occupied = 0;
  for (int op = 0; op < 4000; ++op) {
    const std::size_t live_before = visited().size();
    const std::uint64_t roll = rng() % 100;
    if (roll < 85) {
      now += static_cast<SimTime>(rng() % (400 * kMillisecond));
      const std::uint64_t installs_before = table.installs();
      FlowState* fs = table.Lookup(rng() % 24, now);
      if (fs != nullptr) fs->last_seen = now;
      if (table.installs() > installs_before && visited().size() == live_before)
        ++stale_replacements;
    } else if (roll < 97) {
      donor.Reset();
      for (int i = 0; i < 4; ++i) donor.Lookup(rng() % 24, now);
      table.ImportWords(donor.ExportWords(), now);
      if (visited().size() < live_before + donor.ExportWords().size() / 4)
        ++imports_onto_occupied;
    } else {
      table.Reset();
    }
    const std::vector<std::uint64_t> keys = visited();
    ASSERT_EQ(keys, exported()) << "after operation " << op;
    ASSERT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
        << "a slot visited twice after operation " << op;
  }
  // The run exercised both ways an occupied slot is taken over.
  EXPECT_GT(stale_replacements, 0);
  EXPECT_GT(imports_onto_occupied, 0);
}

TEST(FlowTableTest, ExportImportRoundTrips) {
  FlowTable a(64);
  FlowState* fs = a.Lookup(99, kSecond);
  fs->packets = 10;
  fs->bytes = 5000;
  FlowTable b(64);
  b.ImportWords(a.ExportWords(), 2 * kSecond);
  const FlowState* copy = b.Peek(99);
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->packets, 10u);
  EXPECT_EQ(copy->bytes, 5000u);
}

TEST(TokenBucketTest, EnforcesSustainedRate) {
  TokenBucket bucket(8e6, 10'000);  // 1 MB/s, 10 KB burst
  SimTime now = 0;
  std::uint64_t passed = 0;
  // Offer 2 MB over one second in 1 KB packets.
  for (int i = 0; i < 2000; ++i) {
    now += kSecond / 2000;
    if (bucket.Allow(now, 1000)) passed += 1000;
  }
  // Roughly rate * 1 s + burst.
  EXPECT_NEAR(static_cast<double>(passed), 1e6 + 1e4, 5e4);
}

TEST(TokenBucketTest, BurstAllowsShortOverrun) {
  TokenBucket bucket(8e6, 5000);
  EXPECT_TRUE(bucket.Allow(0, 5000));   // the full burst at once
  EXPECT_FALSE(bucket.Allow(0, 5000));  // but not twice
  // After 5 ms, 5 KB of tokens have accumulated again.
  EXPECT_TRUE(bucket.Allow(5 * kMillisecond, 5000));
}

TEST(TokenBucketTest, SetRateTakesEffect) {
  TokenBucket bucket(8e6, 1000);
  bucket.Allow(0, 1000);  // drain
  bucket.SetRate(80e6);
  EXPECT_DOUBLE_EQ(bucket.rate_bps(), 80e6);
  // At 10 MB/s, 1 KB takes 100 us to accumulate.
  EXPECT_FALSE(bucket.Allow(50 * kMicrosecond, 1000));
  EXPECT_TRUE(bucket.Allow(200 * kMicrosecond, 1000));
}

TEST(PpmTest, SignatureEqualityAndHash) {
  const PpmSignature a{PpmKind::kCountMinSketch, {1024, 3}};
  const PpmSignature b{PpmKind::kCountMinSketch, {1024, 3}};
  const PpmSignature c{PpmKind::kCountMinSketch, {2048, 3}};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(SignatureHash(a), SignatureHash(b));
  EXPECT_NE(SignatureHash(a), SignatureHash(c));
}

TEST(PpmTest, KindNamesAreDistinct) {
  EXPECT_EQ(PpmKindName(PpmKind::kParser), "parser");
  EXPECT_EQ(PpmKindName(PpmKind::kHashPipeTable), "hashpipe_table");
  EXPECT_NE(PpmKindName(PpmKind::kBloomFilter), PpmKindName(PpmKind::kCountMinSketch));
}

}  // namespace
}  // namespace fastflex::dataplane
