// The built-in booster catalog: every booster's analyzer spec (dataflow
// graph + resource demands, Figure 1a) and live install hook, registered
// under one name each.  The specs mirror the live modules' semantic
// signatures and resource demands, so what the analyzer computes about
// sharing and packing is what Pipeline::InstallShared actually does at
// deployment time.
#include "boosters/dropper.h"
#include "boosters/heavy_hitter.h"
#include "boosters/hop_count.h"
#include "boosters/lfa_detector.h"
#include "boosters/obfuscator.h"
#include "boosters/rate_limiter.h"
#include "boosters/registry.h"
#include "boosters/reroute.h"
#include "boosters/syn_proxy.h"
#include "dataplane/cuckoo.h"
#include "dataplane/failover.h"
#include "dataplane/int_ppm.h"

namespace fastflex::boosters {

using analyzer::BoosterSpec;
using analyzer::PpmDescriptor;
using analyzer::PpmRole;
using dataplane::PpmKind;
using dataplane::PpmSignature;
using dataplane::ResourceVector;
namespace mode = dataplane::mode;

namespace {

// Shared components appear with identical signatures in several boosters;
// the analyzer collapses them in the merged graph (Figure 1b).
PpmDescriptor Parser() {
  return {"parser", PpmSignature{PpmKind::kParser, {0xf}}, ResourceVector{1.0, 0.5, 256.0, 0.0},
          PpmRole::kSupport, mode::kAlwaysOn};
}
PpmDescriptor Deparser() {
  return {"deparser", PpmSignature{PpmKind::kDeparser, {0xf}},
          ResourceVector{1.0, 0.25, 0.0, 0.0}, PpmRole::kSupport, mode::kAlwaysOn};
}
PpmDescriptor SuspicionBloom() {
  return {"suspicious_src_bloom", PpmSignature{PpmKind::kBloomFilter, {8192, 3}},
          ResourceVector{1.0, 8192.0 / 8.0 / 1e6 + 0.1, 0.0, 3.0}, PpmRole::kSupport,
          mode::kAlwaysOn};
}
PpmDescriptor DstFlowSketch() {
  return {"dst_flow_count_sketch", PpmSignature{PpmKind::kCountMinSketch, {1024, 3, 1}},
          ResourceVector{1.5, 1024 * 3 * 8.0 / 1e6 + 0.1, 0.0, 3.0}, PpmRole::kSupport,
          mode::kAlwaysOn};
}

BoosterSpec LfaDetectionSpec() {
  BoosterSpec s;
  s.name = "lfa_detection";
  s.ppms = {
      Parser(),
      {"lfa_detector", PpmSignature{PpmKind::kFlowStateTable, {4096, 500000}},
       ResourceVector{3.0, 1.5, 0.0, 8.0}, PpmRole::kDetection, mode::kAlwaysOn},
      DstFlowSketch(),
      SuspicionBloom(),
      {"mode_protocol", PpmSignature{PpmKind::kAlarmGenerator, {16}},
       ResourceVector{0.5, 0.1, 0.0, 2.0}, PpmRole::kDetection, mode::kAlwaysOn},
      Deparser(),
  };
  s.edges = {
      {"parser", "lfa_detector", 3.0},
      {"lfa_detector", "dst_flow_count_sketch", 2.5},
      {"lfa_detector", "suspicious_src_bloom", 2.0},
      {"lfa_detector", "mode_protocol", 1.0},
      {"mode_protocol", "deparser", 0.5},
      {"lfa_detector", "deparser", 0.5},
  };
  return s;
}

BoosterSpec PacketDroppingSpec() {
  BoosterSpec s;
  s.name = "packet_dropping";
  s.ppms = {
      Parser(),
      SuspicionBloom(),
      {"packet_dropper", PpmSignature{PpmKind::kDropPolicy, {90}},
       ResourceVector{1.0, 0.25, 128.0, 2.0}, PpmRole::kMitigation, mode::kLfaDrop},
      Deparser(),
  };
  s.edges = {
      {"parser", "suspicious_src_bloom", 1.0},
      {"suspicious_src_bloom", "packet_dropper", 2.0},
      {"packet_dropper", "deparser", 0.5},
  };
  return s;
}

BoosterSpec CongestionRerouteSpec() {
  BoosterSpec s;
  s.name = "congestion_reroute";
  s.ppms = {
      Parser(),
      {"congestion_reroute", PpmSignature{PpmKind::kUtilizationRouting, {16}},
       ResourceVector{2.0, 1.0, 512.0, 6.0}, PpmRole::kMitigation, mode::kLfaReroute},
      Deparser(),
  };
  s.edges = {
      {"parser", "congestion_reroute", 2.0},
      {"congestion_reroute", "deparser", 1.0},
  };
  return s;
}

BoosterSpec TopologyObfuscationSpec() {
  BoosterSpec s;
  s.name = "topology_obfuscation";
  s.ppms = {
      Parser(),
      SuspicionBloom(),
      {"topology_obfuscator", PpmSignature{PpmKind::kTracerouteRewriter, {1}},
       ResourceVector{1.5, 0.5, 1024.0, 2.0}, PpmRole::kMitigation, mode::kLfaObfuscate},
      Deparser(),
  };
  s.edges = {
      {"parser", "suspicious_src_bloom", 1.0},
      {"suspicious_src_bloom", "topology_obfuscator", 2.0},
      {"topology_obfuscator", "deparser", 0.5},
  };
  return s;
}

BoosterSpec VolumetricDdosSpec() {
  BoosterSpec s;
  s.name = "volumetric_ddos";
  s.ppms = {
      Parser(),
      {"volumetric_detector", PpmSignature{PpmKind::kCountMinSketch, {2048, 3, 2}},
       ResourceVector{1.5, 0.4, 0.0, 3.0}, PpmRole::kDetection, mode::kAlwaysOn},
      {"heavy_hitter_filter", PpmSignature{PpmKind::kHashPipeTable, {4, 512}},
       ResourceVector{4.0, 1.0, 0.0, 8.0}, PpmRole::kMitigation, mode::kVolumetricFilter},
      {"mode_protocol", PpmSignature{PpmKind::kAlarmGenerator, {16}},
       ResourceVector{0.5, 0.1, 0.0, 2.0}, PpmRole::kDetection, mode::kAlwaysOn},
      Deparser(),
  };
  s.edges = {
      {"parser", "volumetric_detector", 2.0},
      {"volumetric_detector", "mode_protocol", 1.0},
      {"volumetric_detector", "heavy_hitter_filter", 2.0},
      {"heavy_hitter_filter", "deparser", 0.5},
  };
  return s;
}

BoosterSpec GlobalRateLimitSpec() {
  BoosterSpec s;
  s.name = "global_rate_limit";
  s.ppms = {
      Parser(),
      {"global_rate_limiter", PpmSignature{PpmKind::kRateAggregator, {7, 40000000}},
       ResourceVector{2.0, 0.5, 0.0, 6.0}, PpmRole::kDetection, mode::kGlobalRateLimit},
      {"meter", PpmSignature{PpmKind::kMeter, {40000000}},
       ResourceVector{0.5, 0.1, 0.0, 2.0}, PpmRole::kMitigation, mode::kGlobalRateLimit},
      Deparser(),
  };
  s.edges = {
      {"parser", "global_rate_limiter", 2.0},
      {"global_rate_limiter", "meter", 3.0},
      {"meter", "deparser", 0.5},
  };
  return s;
}

BoosterSpec HopCountFilterSpec() {
  BoosterSpec s;
  s.name = "hop_count_filter";
  s.ppms = {
      Parser(),
      {"hop_count_filter", PpmSignature{PpmKind::kTtlLearner, {1}},
       ResourceVector{1.5, 0.75, 0.0, 4.0}, PpmRole::kMitigation, mode::kHopCountFilter},
      Deparser(),
  };
  s.edges = {
      {"parser", "hop_count_filter", 1.5},
      {"hop_count_filter", "deparser", 0.5},
  };
  return s;
}

BoosterSpec SynDefenseSpec() {
  // The proxy's demand carries the default filter geometry's SRAM cost, so
  // the analyzer sizes switches against the same footprint the live module
  // asks admission for (a non-default SynProxyConfig shifts both in sync,
  // since SynProxyPpm derives its demand from CuckooFilter::SramCostMb).
  const SynProxyConfig defaults;
  BoosterSpec s;
  s.name = "syn_defense";
  s.ppms = {
      Parser(),
      {"syn_rate_detector",
       PpmSignature{PpmKind::kSynRateDetector,
                    {static_cast<std::uint64_t>(defaults.syn_rate_alarm)}},
       ResourceVector{1.0, 0.1, 0.0, 2.0}, PpmRole::kDetection, mode::kAlwaysOn},
      {"syn_proxy",
       PpmSignature{PpmKind::kSynProxy, {defaults.filter_buckets, defaults.filter_fp_bits}},
       ResourceVector{2.0,
                      dataplane::CuckooFilter::SramCostMb(defaults.filter_buckets,
                                                          defaults.filter_fp_bits) +
                          0.05,
                      128.0, 6.0},
       PpmRole::kMitigation, mode::kSynDefense},
      {"seq_translate", PpmSignature{PpmKind::kSeqTranslate, {1}},
       ResourceVector{1.5, 0.5, 0.0, 4.0}, PpmRole::kMitigation, mode::kAlwaysOn},
      {"mode_protocol", PpmSignature{PpmKind::kAlarmGenerator, {16}},
       ResourceVector{0.5, 0.1, 0.0, 2.0}, PpmRole::kDetection, mode::kAlwaysOn},
      Deparser(),
  };
  s.edges = {
      {"parser", "syn_rate_detector", 2.0},
      {"syn_rate_detector", "mode_protocol", 1.0},
      {"syn_rate_detector", "syn_proxy", 2.0},
      {"syn_proxy", "seq_translate", 1.0},
      {"seq_translate", "deparser", 0.5},
  };
  return s;
}

// The elastic control loop deploys SYN defense split in two: the always-on
// detector everywhere (cheap), and the proxy + translator only where and
// while a flood is actually underway.  `syn_defense` stays registered as
// the static union — a deployment uses either the union or the split pair,
// never both (the module names collide by design).
BoosterSpec SynDetectionSpec() {
  const SynProxyConfig defaults;
  BoosterSpec s;
  s.name = "syn_detection";
  s.ppms = {
      Parser(),
      {"syn_rate_detector",
       PpmSignature{PpmKind::kSynRateDetector,
                    {static_cast<std::uint64_t>(defaults.syn_rate_alarm)}},
       ResourceVector{1.0, 0.1, 0.0, 2.0}, PpmRole::kDetection, mode::kAlwaysOn},
      {"mode_protocol", PpmSignature{PpmKind::kAlarmGenerator, {16}},
       ResourceVector{0.5, 0.1, 0.0, 2.0}, PpmRole::kDetection, mode::kAlwaysOn},
      Deparser(),
  };
  s.edges = {
      {"parser", "syn_rate_detector", 2.0},
      {"syn_rate_detector", "mode_protocol", 1.0},
      {"syn_rate_detector", "deparser", 0.5},
  };
  return s;
}

BoosterSpec SynMitigationSpec() {
  const SynProxyConfig defaults;
  BoosterSpec s;
  s.name = "syn_mitigation";
  s.ppms = {
      Parser(),
      {"syn_proxy",
       PpmSignature{PpmKind::kSynProxy, {defaults.filter_buckets, defaults.filter_fp_bits}},
       ResourceVector{2.0,
                      dataplane::CuckooFilter::SramCostMb(defaults.filter_buckets,
                                                          defaults.filter_fp_bits) +
                          0.05,
                      128.0, 6.0},
       PpmRole::kMitigation, mode::kSynDefense},
      {"seq_translate", PpmSignature{PpmKind::kSeqTranslate, {1}},
       ResourceVector{1.5, 0.5, 0.0, 4.0}, PpmRole::kMitigation, mode::kAlwaysOn},
      Deparser(),
  };
  s.edges = {
      {"parser", "syn_proxy", 2.0},
      {"syn_proxy", "seq_translate", 1.0},
      {"seq_translate", "deparser", 0.5},
  };
  return s;
}

BoosterSpec InBandTelemetrySpec() {
  BoosterSpec s;
  s.name = "in_band_telemetry";
  s.ppms = {
      Parser(),
      {"int_source", PpmSignature{PpmKind::kIntSource, {1, 1}},
       ResourceVector{1.0, 0.25, 128.0, 1.0}, PpmRole::kDetection, mode::kIntTelemetry},
      {"int_transit", PpmSignature{PpmKind::kIntTransit, {8}},
       ResourceVector{2.0, 1.0, 0.0, 4.0}, PpmRole::kDetection, mode::kIntTelemetry},
      {"int_sink", PpmSignature{PpmKind::kIntSink, {}},
       ResourceVector{1.0, 0.25, 0.0, 2.0}, PpmRole::kSupport, mode::kAlwaysOn},
      Deparser(),
  };
  s.edges = {
      {"parser", "int_source", 1.0},
      {"int_source", "int_transit", 1.0},
      {"int_transit", "int_sink", 1.0},
      {"int_sink", "deparser", 0.5},
  };
  return s;
}

BoosterSpec FastFailoverSpec() {
  BoosterSpec s;
  s.name = "fast_failover";
  s.ppms = {
      Parser(),
      {"fast_failover", PpmSignature{PpmKind::kFastFailover, {1}},
       ResourceVector{1.0, 0.25, 64.0, 2.0}, PpmRole::kMitigation, mode::kAlwaysOn},
      Deparser(),
  };
  s.edges = {
      {"parser", "fast_failover", 2.0},
      {"fast_failover", "deparser", 1.0},
  };
  return s;
}

// Install halves of the SYN defense, shared by the static `syn_defense`
// union and the elastic `syn_detection` / `syn_mitigation` split.  Order
// matters when both halves land on one pipeline: the detector must see raw
// SYNs before the proxy consumes them, and the translate module must run
// after the proxy (see syn_proxy.h).  Timers start only for modules
// admission accepted — a rejected module's weak timers die with the
// shared_ptr.
void InstallSynDetector(const DeployEnv& env, const SwitchCtx& ctx) {
  auto det = std::make_shared<SynRateDetectorPpm>(
      env.net, ctx.sw, *env.protected_dsts, *env.syn_proxy, env.EffectiveHardening(),
      ctx.raise_alarm);
  if (ctx.pipe->Install(det)) det->StartTimers();
}

void InstallSynMitigation(const DeployEnv& env, const SwitchCtx& ctx) {
  auto proxy = std::make_shared<SynProxyPpm>(
      env.net, ctx.sw, *env.protected_dsts, *env.syn_proxy, env.EffectiveHardening(),
      StructSalt(env, ctx.sw->id(), FnvHash("fastflex.syn_filter"), 0));
  if (ctx.pipe->Install(proxy)) proxy->StartTimers();
  auto xlate = std::make_shared<SeqTranslatePpm>(
      env.net, ctx.sw, env.host_edge, *env.protected_dsts, *env.syn_proxy);
  if (ctx.pipe->Install(xlate)) xlate->StartTimers();
}

}  // namespace

namespace detail {

void RegisterBuiltins(Registry& reg) {
  // Phases: detectors (20s) → LFA mitigations (30s) → volumetric /
  // rate-limit / hop-count / SYN defense (40s-50s) → fast-failover (70) →
  // INT (80).  Within the LFA quartet this reproduces the legacy
  // BuildPipeline order exactly, so existing deployments walk identical
  // pipelines.
  reg.Add(BoosterDef{
      .name = "lfa_detection",
      .phase = 20,
      .summary = "rolling-LFA detector over per-dst flow buildup",
      .value = 90,
      .modules = {"lfa_detector"},
      .spec = LfaDetectionSpec,
      .install =
          [](const DeployEnv& env, const SwitchCtx& ctx) {
            auto detector = std::make_shared<LfaDetectorPpm>(
                env.net, ctx.sw, ctx.bloom, ctx.dst_sketch, *env.lfa, ctx.raise_alarm);
            ctx.pipe->Install(detector);
            detector->StartTimers();
          },
  });
  reg.Add(BoosterDef{
      .name = "congestion_reroute",
      .phase = 25,
      .summary = "mode-gated utilization-aware reroute off congested links",
      .value = 80,
      .modules = {"congestion_reroute"},
      .spec = CongestionRerouteSpec,
      .install =
          [](const DeployEnv& env, const SwitchCtx& ctx) {
            auto rr = std::make_shared<CongestionReroutePpm>(
                env.net, ctx.sw, ctx.pipe, env.host_edge, *env.reroute, ctx.bloom);
            ctx.pipe->Install(rr);
            rr->StartTimers();
          },
  });
  reg.Add(BoosterDef{
      .name = "topology_obfuscation",
      .phase = 30,
      .summary = "traceroute rewriting to hide the post-reroute topology",
      .value = 20,
      .modules = {"topology_obfuscator"},
      .spec = TopologyObfuscationSpec,
      .install =
          [](const DeployEnv& env, const SwitchCtx& ctx) {
            ctx.pipe->Install(std::make_shared<TopologyObfuscatorPpm>(
                env.net, ctx.sw, ctx.bloom, env.canonical, env.host_edge));
          },
  });
  reg.Add(BoosterDef{
      .name = "packet_dropping",
      .phase = 35,
      .summary = "probabilistic drops of bloom-flagged suspicious sources",
      .value = 30,
      .modules = {"packet_dropper"},
      .spec = PacketDroppingSpec,
      .install =
          [](const DeployEnv& env, const SwitchCtx& ctx) {
            ctx.pipe->Install(std::make_shared<PacketDropperPpm>(
                env.net, env.lfa->drop_threshold, env.lfa->drop_probability));
          },
  });
  reg.Add(BoosterDef{
      .name = "volumetric_ddos",
      .phase = 40,
      .summary = "count-min volumetric detector + heavy-hitter filter",
      .value = 40,
      .modules = {"volumetric_detector", "heavy_hitter_filter"},
      .spec = VolumetricDdosSpec,
      .install =
          [](const DeployEnv& env, const SwitchCtx& ctx) {
            auto vdet = std::make_shared<VolumetricDetectorPpm>(
                env.net, ctx.sw, *env.protected_dsts, *env.volumetric, ctx.raise_alarm,
                StructSalt(env, ctx.sw->id(), FnvHash("fastflex.volumetric_sketch"),
                           dataplane::CountMinSketch::kDefaultSeed));
            ctx.pipe->Install(vdet);
            vdet->StartTimers();
            auto filter = std::make_shared<HeavyHitterFilterPpm>(
                env.net, *env.volumetric, *env.protected_dsts,
                StructSalt(env, ctx.sw->id(), FnvHash("fastflex.hh_pipe"),
                           dataplane::HashPipe::kDefaultSeed));
            ctx.pipe->Install(filter);
            filter->StartTimers();
          },
  });
  reg.Add(BoosterDef{
      .name = "global_rate_limit",
      .phase = 45,
      .summary = "distributed aggregate rate limiting over probe sync",
      .value = 35,
      .modules = {"global_rate_limiter"},
      .spec = GlobalRateLimitSpec,
      .install =
          [](const DeployEnv& env, const SwitchCtx& ctx) {
            auto limiter = std::make_shared<GlobalRateLimiterPpm>(
                env.net, ctx.sw, ctx.pipe, env.rate_limit_service_key,
                *env.rate_limit_dsts, *env.rate_limit);
            ctx.pipe->Install(limiter);
            limiter->StartTimers();
          },
  });
  reg.Add(BoosterDef{
      .name = "hop_count_filter",
      .phase = 50,
      .summary = "TTL-consistency filter against spoofed floods",
      .value = 25,
      .modules = {"hop_count_filter"},
      .spec = HopCountFilterSpec,
      .install =
          [](const DeployEnv& env, const SwitchCtx& ctx) {
            ctx.pipe->Install(
                std::make_shared<HopCountFilterPpm>(env.net, ctx.pipe, *env.hop_count));
          },
  });
  reg.Add(BoosterDef{
      .name = "syn_defense",
      .phase = 55,
      .summary = "SYN-cookie split proxy with cuckoo-filter flow tracking",
      .value = 45,
      .modules = {"syn_rate_detector", "syn_proxy", "seq_translate"},
      .spec = SynDefenseSpec,
      .install =
          [](const DeployEnv& env, const SwitchCtx& ctx) {
            InstallSynDetector(env, ctx);
            InstallSynMitigation(env, ctx);
          },
  });
  reg.Add(BoosterDef{
      .name = "syn_detection",
      .phase = 22,
      .summary = "always-on SYN-rate alarm half of the split proxy",
      .value = 85,
      .modules = {"syn_rate_detector"},
      .spec = SynDetectionSpec,
      .install = InstallSynDetector,
  });
  reg.Add(BoosterDef{
      .name = "syn_mitigation",
      .phase = 56,
      .summary = "cookie proxy + seq translation, elastically scaled in",
      .value = 45,
      .modules = {"syn_proxy", "seq_translate"},
      .spec = SynMitigationSpec,
      .install = InstallSynMitigation,
  });
  reg.Add(BoosterDef{
      .name = "fast_failover",
      .phase = 70,
      .summary = "data-plane reroute onto backup next hops past dead links",
      .value = 60,
      .modules = {"fast_failover"},
      .spec = FastFailoverSpec,
      .install =
          [](const DeployEnv& env, const SwitchCtx& ctx) {
            auto ff = std::make_shared<dataplane::FastFailoverPpm>(env.net, ctx.sw,
                                                                   *env.failover);
            if (env.recorder != nullptr) ff->SetTelemetry(env.recorder);
            ctx.pipe->Install(ff);
          },
  });
  reg.Add(BoosterDef{
      .name = "in_band_telemetry",
      .phase = 80,
      .summary = "INT source/transit/sink trio for hop-level diagnosis",
      .value = 10,
      .modules = {"int_source", "int_transit", "int_sink"},
      .spec = InBandTelemetrySpec,
      .install =
          [](const DeployEnv& env, const SwitchCtx& ctx) {
            ctx.pipe->Install(
                std::make_shared<dataplane::IntSourcePpm>(ctx.sw, env.host_edge, *env.int_match));
            ctx.pipe->Install(std::make_shared<dataplane::IntTransitPpm>(env.net, ctx.sw,
                                                                         ctx.pipe, ctx.mode_epoch));
            ctx.pipe->Install(std::make_shared<dataplane::IntSinkPpm>(ctx.sw, env.host_edge,
                                                                      env.int_collector));
          },
  });
}

}  // namespace detail

}  // namespace fastflex::boosters
