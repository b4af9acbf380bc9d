// Micro M1: per-packet costs of the data-plane primitives.
//
// These are the operations a switch executes per packet (or per transfer
// word); their costs justify the paper's claim that the defenses run "at
// hardware speeds" — in this software model they bound the simulator's
// throughput.  Micro M2 (solver scalability: TE, joint analysis, cluster
// packing) rides at the end.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "analyzer/analyzer.h"
#include "boosters/registry.h"
#include "boosters/shared_ppms.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "dataplane/bloom.h"
#include "dataplane/fec.h"
#include "dataplane/flow_table.h"
#include "dataplane/hashpipe.h"
#include "dataplane/meter.h"
#include "dataplane/pipeline.h"
#include "dataplane/sketch.h"
#include "scenarios/fattree.h"
#include "scheduler/placement.h"
#include "scheduler/te.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"

namespace {

using namespace fastflex;
using namespace fastflex::dataplane;

void BM_CountMinUpdate(benchmark::State& state) {
  CountMinSketch cms(static_cast<std::size_t>(state.range(0)), 3);
  Rng rng(1);
  std::uint64_t key = 0;
  for (auto _ : state) {
    cms.Update(key);
    key = key * 2862933555777941757ULL + 3037000493ULL;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CountMinUpdate)->Arg(256)->Arg(1024)->Arg(4096);

void BM_CountMinEstimate(benchmark::State& state) {
  CountMinSketch cms(1024, 3);
  for (std::uint64_t k = 0; k < 10'000; ++k) cms.Update(k);
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cms.Estimate(key++ % 10'000));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CountMinEstimate);

void BM_BloomInsert(benchmark::State& state) {
  BloomFilter bloom(static_cast<std::size_t>(state.range(0)), 3);
  std::uint64_t key = 0;
  for (auto _ : state) bloom.Insert(key++);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BloomInsert)->Arg(4096)->Arg(65536);

void BM_BloomQuery(benchmark::State& state) {
  BloomFilter bloom(8192, 3);
  for (std::uint64_t k = 0; k < 500; ++k) bloom.Insert(k);
  std::uint64_t key = 0;
  for (auto _ : state) benchmark::DoNotOptimize(bloom.MayContain(key++ % 1000));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BloomQuery);

void BM_HashPipeUpdate(benchmark::State& state) {
  HashPipe hp(static_cast<std::size_t>(state.range(0)), 512);
  Rng rng(1);
  for (auto _ : state) {
    hp.Update(rng.Next() % 4096, 1000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HashPipeUpdate)->Arg(2)->Arg(4)->Arg(8);

void BM_FlowTableLookup(benchmark::State& state) {
  FlowTable table(4096);
  Rng rng(1);
  SimTime now = 0;
  for (auto _ : state) {
    now += 1000;
    benchmark::DoNotOptimize(table.Lookup(rng.Next() % 8192, now));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlowTableLookup);

void BM_TokenBucketAllow(benchmark::State& state) {
  TokenBucket bucket(1e9, 100'000);
  SimTime now = 0;
  for (auto _ : state) {
    now += 1000;
    benchmark::DoNotOptimize(bucket.Allow(now, 1000));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TokenBucketAllow);

void BM_FecEncode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> words(n);
  Rng rng(1);
  for (auto& w : words) w = rng.Next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(FecEncode(words, 8));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FecEncode)->Arg(256)->Arg(4096);

void BM_FecDecodeWithRecovery(benchmark::State& state) {
  const std::size_t n = 1024;
  std::vector<std::uint64_t> words(n);
  Rng rng(1);
  for (auto& w : words) w = rng.Next();
  const auto groups = FecEncode(words, 8);
  for (auto _ : state) {
    FecDecoder dec(n, 8);
    for (const auto& g : groups) {
      bool first = true;
      for (const auto& w : g.words) {
        if (first) {
          first = false;  // drop one word per group: worst-case recovery
          continue;
        }
        dec.AddDataWord(w.index, w.value);
      }
      dec.AddParity(g.group_id, g.parity);
    }
    benchmark::DoNotOptimize(dec.Complete());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FecDecodeWithRecovery);

void InstallSharedComponents(Pipeline& pipe, bool modes_on) {
  pipe.InstallShared(std::make_shared<fastflex::boosters::ParserPpm>());
  pipe.InstallShared(std::make_shared<fastflex::boosters::SuspiciousSrcBloomPpm>());
  pipe.InstallShared(std::make_shared<fastflex::boosters::DstFlowCountSketchPpm>());
  pipe.InstallShared(std::make_shared<fastflex::boosters::DeparserPpm>());
  if (modes_on) pipe.ActivateMode(mode::kLfaReroute | mode::kLfaDrop);
}

void BM_PipelineWalk(benchmark::State& state) {
  // A pipeline with the shared components installed: the per-packet cost of
  // the multimode data plane itself (mode gating + module dispatch).
  // Telemetry detached: the disabled path must cost one branch per walk, so
  // this must stay within noise of the pre-telemetry build.
  Pipeline pipe(DefaultSwitchCapacity());
  InstallSharedComponents(pipe, state.range(0) != 0);

  sim::Packet pkt;
  pkt.kind = sim::PacketKind::kData;
  pkt.src = 1;
  pkt.dst = 2;
  for (auto _ : state) {
    sim::PacketContext ctx{pkt, nullptr, kInvalidLink, 0, false, false, kInvalidNode, {}};
    pipe.Process(ctx);
    benchmark::DoNotOptimize(ctx.drop);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PipelineWalk)->Arg(0)->Arg(1);

void BM_PipelineWalkTelemetry(benchmark::State& state) {
  // Same walk with a recorder attached: the enabled path does no name
  // lookups (metric pointers are cached at SetTelemetry), just increments.
  Pipeline pipe(DefaultSwitchCapacity());
  InstallSharedComponents(pipe, state.range(0) != 0);
  telemetry::Recorder rec;
  pipe.SetTelemetry(&rec, "bench.pipeline");

  sim::Packet pkt;
  pkt.kind = sim::PacketKind::kData;
  pkt.src = 1;
  pkt.dst = 2;
  for (auto _ : state) {
    sim::PacketContext ctx{pkt, nullptr, kInvalidLink, 0, false, false, kInvalidNode, {}};
    pipe.Process(ctx);
    benchmark::DoNotOptimize(ctx.drop);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PipelineWalkTelemetry)->Arg(0)->Arg(1);

void BM_PacketPath(benchmark::State& state) {
  // The full per-hop cost of the simulator's forwarding primitive: link
  // admission, serialization scheduling, event-queue insertion, delivery,
  // host receive.  In-flight packets park in the network's packet pool, so
  // the delivery closure fits SmallCallback inline: no allocation per hop.
  // Arg(0) packets are in flight at once.
  sim::Topology topo;
  const NodeId a = topo.AddNode(sim::NodeKind::kHost, "a");
  const NodeId b = topo.AddNode(sim::NodeKind::kHost, "b");
  const LinkId ab = topo.AddDuplexLink(a, b, 1e12, kMicrosecond, 1u << 30);
  (void)a;
  sim::Network net(topo, 1);
  const int batch = static_cast<int>(state.range(0));
  std::uint64_t sent = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      sim::Packet pkt;
      pkt.kind = sim::PacketKind::kUdp;
      pkt.src = 1;
      pkt.dst = 2;
      pkt.flow = 7;  // no endpoint attached: counted at b, then discarded
      pkt.size_bytes = 1000;
      pkt.SetTag(sim::tag::kSuspicion, 42);  // exercise inline tag storage
      net.SendOnLink(ab, std::move(pkt));
      ++sent;
    }
    net.events().RunAll();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sent));
}

BENCHMARK(BM_PacketPath)->Arg(32)->Arg(256)->Arg(4096);

void BM_TagAttachInline(benchmark::State& state) {
  // Tagging a packet with TagList: the first kInlineTags tags live inside
  // the packet, so attach + read + discard never touches the heap.
  std::uint64_t v = 0;
  for (auto _ : state) {
    sim::TagList tags;
    tags.push_back({sim::tag::kSackBitmap, v});
    tags.push_back({sim::tag::kSuspicion, v >> 3});
    benchmark::DoNotOptimize(tags.begin());
    ++v;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TagAttachInline);

// The shape of the arrival closure Network::SendOnLink schedules per hop,
// [this, to, link, h]: a pointer and three 32-bit ids, 24 bytes with
// padding, which SmallCallback stores inline.
auto DeliveryClosure(std::uint64_t* sink, std::uint32_t h) {
  const NodeId to = 2;
  const LinkId link = 3;
  return [sink, to, link, h] { *sink += static_cast<std::uint64_t>(to + link) + h; };
}
static_assert(sizeof(decltype(DeliveryClosure(nullptr, 0))) == 24);

void BM_EventClosureInline(benchmark::State& state) {
  // Scheduling and firing the per-hop arrival closure through the event
  // queue.  SmallCallback keeps it inline: no allocation per event.
  sim::EventQueue q;
  std::uint64_t sink = 0;
  std::uint32_t h = 0;
  SimTime t = 0;
  for (auto _ : state) {
    q.ScheduleAt(++t, DeliveryClosure(&sink, ++h));
    q.RunAll();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventClosureInline);

void BM_EventQueueHold(benchmark::State& state) {
  // The queue layer's cost per event at a steady pending-set size (the
  // classic hold model): each step pops the earliest event and pushes one
  // at a random later time, so Arg(0) events stay pending.  The sizes were
  // picked near the perfbench workloads' peak pending sets, which lazy link
  // departures and one RTO timer per sender have since cut to 792 on
  // fig3_lfa, 929 on ring_tcp and 5,438 on syn_flood.
  const auto pending = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kDelays = 1u << 16;
  Rng rng(7);
  std::vector<SimTime> delays(kDelays);
  for (auto& d : delays) d = rng.UniformInt(1, kSecond);
  sim::EventQueue q;
  q.Reserve(pending + 1);
  std::uint64_t sink = 0;
  std::uint32_t h = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    q.ScheduleAt(delays[i % kDelays], DeliveryClosure(&sink, ++h));
  }
  for (auto _ : state) {
    q.DispatchOne(sim::EventQueue::kNoEvent);
    ++h;
    q.ScheduleAt(q.Now() + delays[h % kDelays], DeliveryClosure(&sink, h));
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueHold)->Arg(2048)->Arg(8192);

void BM_EventQueueSchedule(benchmark::State& state) {
  // Event admission cost: 1024 ScheduleAt calls (one sift-up each), then
  // a drain.
  sim::EventQueue q;
  q.Reserve(4096);
  std::uint64_t n = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) {
      q.ScheduleAt(static_cast<SimTime>((i * 37) % 1024), [] {});
    }
    q.RunAll();
    n += 1024;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueSchedule);

// ---- Micro M2: solver scalability (TE, joint analysis, cluster packing) ----

void BM_TeSolve_FatTree(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  auto ft = scenarios::BuildFatTree(k);
  std::vector<scheduler::Demand> demands;
  for (std::size_t i = 1; i < ft.hosts.size(); ++i) {
    demands.push_back(
        {ft.hosts[i], ft.hosts[i % 3], 10e6 * (1 + i % 4), static_cast<FlowId>(i)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler::SolveTe(ft.topo, demands));
  }
  state.counters["demands"] = static_cast<double>(demands.size());
  state.counters["switches"] =
      static_cast<double>(ft.core.size() + ft.aggregation.size() + ft.edge.size());
}
BENCHMARK(BM_TeSolve_FatTree)->Arg(4)->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_MergeAnalysis(benchmark::State& state) {
  // Joint analysis cost vs number of boosters (replicated suites emulate
  // third-party booster ecosystems).
  auto specs = boosters::SpecsFor(boosters::FullBoosterSuite());
  const auto base = specs;
  for (int copy = 1; copy < state.range(0); ++copy) {
    for (auto spec : base) {
      spec.name += "_v" + std::to_string(copy);
      // Perturb one parameter so copies are not fully shareable.
      if (!spec.ppms.empty() && !spec.ppms[1].signature.params.empty()) {
        spec.ppms[1].signature.params[0] += static_cast<std::uint64_t>(copy);
      }
      specs.push_back(std::move(spec));
    }
  }
  for (auto _ : state) {
    auto merged = analyzer::Merge(specs);
    benchmark::DoNotOptimize(analyzer::ClusterGraph(merged, DefaultSwitchCapacity()));
  }
  state.counters["boosters"] = static_cast<double>(specs.size());
}
BENCHMARK(BM_MergeAnalysis)->Arg(1)->Arg(4)->Arg(16);

void BM_PlaceClusters_FatTree(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  auto ft = scenarios::BuildFatTree(k);
  std::vector<sim::Path> paths;
  for (std::size_t i = 1; i < ft.hosts.size(); ++i) {
    paths.push_back(ft.topo.ShortestPath(ft.hosts[i], ft.hosts[0]));
  }
  const auto merged = analyzer::Merge(boosters::SpecsFor(boosters::FullBoosterSuite()));
  scheduler::PlacementOptions options;
  const auto clusters = analyzer::ClusterGraph(
      merged, options.switch_capacity - options.routing_reserve);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler::PlaceClusters(ft.topo, clusters, paths, options));
  }
  state.counters["switches"] =
      static_cast<double>(ft.core.size() + ft.aggregation.size() + ft.edge.size());
}
BENCHMARK(BM_PlaceClusters_FatTree)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Console output for humans, plus the machine-readable JSON artifact every
  // bench in this repo emits.  Injected before the real argv so an explicit
  // --benchmark_out on the command line still wins.
  std::vector<char*> args;
  args.push_back(argv[0]);
  std::string out_flag = "--benchmark_out=BENCH_micro_dataplane.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  args.push_back(out_flag.data());
  args.push_back(fmt_flag.data());
  for (int i = 1; i < argc; ++i) args.push_back(argv[i]);
  int patched_argc = static_cast<int>(args.size());
  benchmark::Initialize(&patched_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(patched_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
