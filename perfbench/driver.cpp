// perfbench driver: runs one benchmark workload of the simulator in this
// process, on one thread, through the library's public APIs only, and
// prints the raw samples as one JSON document on stdout.  perfbench/run.py
// builds this binary, runs it, turns the samples into medians and
// percentiles, and prints the report.
//
//   perfbench_driver --workload <fig3_lfa|syn_flood|ring_tcp> --seed <n>
//                    --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics: set-up time (batches of
// builds, one sample per batch), run time (whole runs repeated for
// --seconds), both scaled by a reference kernel timed next to them,
// legitimate goodput, and the process's peak RSS.  --trace 1
// alternates untraced and traced runs for --seconds and reports per-layer
// figures, the timing ones as one sample per run.  A traced run wraps every
// switch's packet processor in a timing decorator and advances the
// simulation in 1 s simulated slices; neither changes what the simulation
// does, and every traced export is compared byte for byte against the
// untraced export of the same seed.
//
// Every run is checked: its outcome must be in bounds, and its export must
// equal the first export of the same seed in this invocation.  A run that
// fails a check is counted and described in "failures".
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "scenarios/builder.h"
#include "scenarios/fig3.h"
#include "scenarios/scale_fig3.h"
#include "scheduler/te.h"
#include "sim/handshake.h"
#include "sim/host.h"
#include "sim/switch_node.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"

namespace {

using namespace fastflex;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

enum class Kind { kFig3, kSyn, kRing };

// ---- Workload definitions ----

constexpr SimTime kAttackAt = 10 * kSecond;

SimTime Duration(Kind k) {
  switch (k) {
    case Kind::kFig3: return 120 * kSecond;  // the paper's Figure 3 run
    case Kind::kSyn: return 60 * kSecond;
    case Kind::kRing: return 6 * kSecond;
  }
  return 0;
}

scenarios::ScenarioBuilder Configure(Kind k, std::uint64_t seed, telemetry::Recorder* rec) {
  scenarios::ScenarioBuilder b;
  b.Seed(seed).Defense(scenarios::DefenseKind::kFastFlex).AttackAt(kAttackAt).Record(rec);
  if (k == Kind::kSyn) {
    // The flood rate sizes this workload: 8 bots at 10k spoofed SYN/s each
    // against 6 clients x 40 legitimate handshake sessions.
    scenarios::SynFloodFigParams p;
    p.syn_rate_per_bot = 10'000.0;
    b.EnableInt(false).SynFlood(p).SampleModes(dataplane::mode::kSynDefense);
  } else {
    b.EnableInt(true);
  }
  return b;
}

scenarios::ScaleFig3Options RingOptions(std::uint64_t seed, SimTime duration,
                                        telemetry::Recorder* rec) {
  scenarios::ScaleFig3Options o;
  o.seed = seed;
  o.duration = duration;
  o.regions = 16;
  o.clients_per_region = 8;
  o.recorder = rec;
  return o;
}

// ---- The timing decorator (traced runs only) ----

// Wraps a switch's processor; sums wall time per simulated slice, so the
// trace holds one number per (switch, slice) rather than one per packet.
class TimedProcessor : public sim::PacketProcessor {
 public:
  TimedProcessor(sim::PacketProcessor* inner, const std::size_t* slice, std::size_t slices)
      : inner_(inner), slice_(slice), ns_(slices, 0) {}

  void Process(sim::PacketContext& ctx) override {
    const auto t0 = Clock::now();
    inner_->Process(ctx);
    const auto t1 = Clock::now();
    ns_[*slice_] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    ++walks_;
    if (ctx.drop) ++drops_;
  }
  Address TracerouteReportAddress(const sim::Packet& probe, Address own) override {
    return inner_->TracerouteReportAddress(probe, own);
  }

  sim::PacketProcessor* inner() const { return inner_; }
  const std::vector<std::uint64_t>& ns_by_slice() const { return ns_; }
  std::uint64_t walks() const { return walks_; }
  std::uint64_t drops() const { return drops_; }

 private:
  sim::PacketProcessor* inner_;
  const std::size_t* slice_;
  std::vector<std::uint64_t> ns_;
  std::uint64_t walks_ = 0;
  std::uint64_t drops_ = 0;
};

// ---- Spans, kept in memory and printed at the end ----

struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0.0;  // relative to process start
  double end_s = 0.0;
};

const Clock::time_point g_start = Clock::now();

class SpanLog {
 public:
  int Open(std::string name, int parent) {
    spans_.push_back(Span{std::move(name), parent, Seconds(g_start, Clock::now()), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) { spans_[static_cast<std::size_t>(id)].end_s = Seconds(g_start, Clock::now()); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// ---- The reference kernel ----

// A fixed piece of work, the same in every version of the library, timed
// next to every set-up batch and every run.  The end-to-end times are
// scaled by how fast it ran then (README.md, "Scaling to the machine's
// speed"), so a host whose speed changes with its other tenants' load does
// not show up as a change in the library.  It does the event queue's kind
// of work: pop the earliest of 32k timestamps from a binary min-heap and
// push it back later.  Its 256 KiB working set slows, as the simulator
// does, when a neighbour sharing the core takes its caches.
class RefKernel {
 public:
  // A fixed round figure near Sample()'s time, with warm caches, on the
  // 4-vCPU Xeon VM the benchmark was tuned on when its neighbours were
  // quiet.  A sample taken in a run starts with the caches the simulator
  // left and reads more, so scaled times read below wall times; compare
  // them only with each other.
  static constexpr double kNominalS = 0.005;

  RefKernel() : heap_(kHeapSlots) {
    for (auto& key : heap_) key = Next() >> 20;
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

  // Seconds for one pass of kSteps pops and pushes.
  double Sample() {
    const auto t0 = Clock::now();
    for (int i = 0; i < kSteps; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      heap_.back() += Next() >> 44;
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    return Seconds(t0, Clock::now());
  }

 private:
  static constexpr std::size_t kHeapSlots = std::size_t{1} << 15;
  static constexpr int kSteps = 100'000;

  std::uint64_t Next() {  // 64-bit LCG (Knuth's MMIX constants)
    lcg_ = lcg_ * 6364136223846793005ull + 1442695040888963407ull;
    return lcg_;
  }

  std::vector<std::uint64_t> heap_;
  std::uint64_t lcg_ = 1;
};

// ---- One run ----

struct RunResult {
  double run_s = 0.0;
  double scaled_run_s = 0.0;  // runs given a reference kernel
  double goodput = 0.0;  // legit_goodput_frac
  std::string doc;       // the exported telemetry document
  std::string outcome_error;  // empty when the outcome is in bounds
  std::unique_ptr<telemetry::Recorder> rec;

  // Counts read off the live scenario before it is torn down.
  std::uint64_t events = 0;
  std::uint64_t flood_syns = 0;
  std::uint64_t rolls = 0;
  std::uint64_t cookies_sent = 0;
  std::uint64_t handshakes_validated = 0;
  std::uint64_t filter_inserts = 0;
  std::uint64_t filter_insert_failures = 0;
  std::uint64_t policy_drops = 0;
  std::vector<double> te_solve_s;  // traced builder runs: one per SolveTe call

  // Traced runs only.
  std::vector<double> slice_wall_s;
  std::vector<double> slice_walk_s;
  std::uint64_t walks = 0;
  std::uint64_t walk_drops = 0;
  std::map<NodeId, std::vector<std::uint64_t>> walk_ns;  // per switch, per slice
};

std::string Export(const telemetry::Recorder& rec) {
  return telemetry::ToJson(rec, telemetry::ExportOptions{.include_prof = false});
}

// Fills the syn_flood outcome and booster counts from the live scenario.
void SummarizeSyn(scenarios::BuiltScenario& s, RunResult& r) {
  int completed = 0;
  for (FlowId f : s.sessions) {
    sim::Host* host = s.net->host_at(s.net->flow_endpoints(f).src);
    if (host == nullptr) continue;
    auto* hc = dynamic_cast<sim::HandshakeClient*>(host->endpoint(f));
    if (hc != nullptr && hc->closed()) ++completed;
  }
  r.goodput = s.sessions.empty() ? 0.0
                                 : static_cast<double>(completed) /
                                       static_cast<double>(s.sessions.size());
  for (const auto& node : s.net->topology().nodes()) {
    if (node.kind != sim::NodeKind::kSwitch) continue;
    if (auto* proxy = s.orchestrator->syn_proxy(node.id)) {
      r.cookies_sent += proxy->cookies_sent();
      r.handshakes_validated += proxy->handshakes_validated();
      r.filter_inserts += proxy->filter().insertions();
      r.filter_insert_failures += proxy->filter().failed_inserts();
    }
  }
  r.flood_syns = s.syn_attacker->syns_sent();
  if (r.cookies_sent == 0) r.outcome_error = "syn_flood: no SYN cookie was ever sent";
  else if (r.goodput < 0.9) r.outcome_error = "syn_flood: fewer than 90% of sessions completed";
}

// A builder workload (fig3_lfa, syn_flood).  Times RunUntil, the summary,
// CollectTelemetry and ToJson; set-up (Build) is outside the timed region.
// Given a reference kernel, the run advances in 1 s simulated slices with a
// kernel sample after each: the kernel's time is left out of run_s, and
// scaled_run_s scales each slice, and the summary and export after the
// last, by the sample that follows it.
RunResult RunBuilt(Kind k, std::uint64_t seed, bool traced, SpanLog* log, RefKernel* ref) {
  RunResult r;
  auto rec = std::make_unique<telemetry::Recorder>();
  const int setup_span = log ? log->Open("setup", -1) : -1;
  scenarios::BuiltScenario s = Configure(k, seed, rec.get()).Build();
  if (log) log->Close(setup_span);
  sim::Network& net = *s.net;
  const SimTime duration = Duration(k);

  const auto slices = static_cast<std::size_t>(duration / kSecond);
  std::size_t slice = 0;
  std::vector<std::unique_ptr<TimedProcessor>> wrappers;
  std::vector<NodeId> wrapped;
  if (traced) {
    for (const auto& node : net.topology().nodes()) {
      sim::SwitchNode* sw = net.switch_at(node.id);
      if (sw == nullptr || sw->processor() == nullptr) continue;
      wrappers.push_back(std::make_unique<TimedProcessor>(sw->processor(), &slice, slices));
      sw->SetProcessor(wrappers.back().get());
      wrapped.push_back(node.id);
    }
  }

  const auto t0 = Clock::now();
  const int run_span = log ? log->Open("run", -1) : -1;
  if (traced) {
    for (slice = 0; slice < slices; ++slice) {
      const int span = log ? log->Open("slice." + std::to_string(slice), run_span) : -1;
      const auto a = Clock::now();
      net.RunUntil(static_cast<SimTime>(slice + 1) * kSecond);
      r.slice_wall_s.push_back(Seconds(a, Clock::now()));
      if (log) log->Close(span);
    }
    slice = 0;
  } else if (ref != nullptr) {
    for (std::size_t i = 0; i < slices; ++i) {
      const auto a = Clock::now();
      net.RunUntil(static_cast<SimTime>(i + 1) * kSecond);
      const double wall = Seconds(a, Clock::now());
      const double kernel = ref->Sample();
      r.scaled_run_s += wall * RefKernel::kNominalS / kernel;
      r.run_s += wall;
    }
  } else {
    net.RunUntil(duration);
  }
  const auto tail = Clock::now();
  const int summary_span = log ? log->Open("summary", run_span) : -1;
  if (k == Kind::kFig3) {
    // SummarizeFig3Run also collects the network's and the orchestrator's
    // telemetry into the recorder and detaches it.
    const scenarios::Fig3Result fig = scenarios::SummarizeFig3Run(s, duration, kAttackAt, rec.get());
    r.goodput = fig.mean_during_attack;
    r.rolls = fig.rolls.size();
    if (fig.first_alarm == 0) r.outcome_error = "fig3_lfa: the LFA alarm never fired";
    else if (r.goodput < 0.9) r.outcome_error = "fig3_lfa: goodput during the attack collapsed";
  } else {
    SummarizeSyn(s, r);
    net.CollectTelemetry(*rec);
    s.orchestrator->CollectTelemetry(*rec);
    net.SetTelemetry(nullptr);
  }
  if (log) log->Close(summary_span);
  const int export_span = log ? log->Open("export", run_span) : -1;
  r.doc = Export(*rec);
  if (log) log->Close(export_span);
  if (log) log->Close(run_span);
  if (ref != nullptr) {
    const double tail_s = Seconds(tail, Clock::now());
    r.run_s += tail_s;
    r.scaled_run_s += tail_s * RefKernel::kNominalS / ref->Sample();
  } else {
    r.run_s = Seconds(t0, Clock::now());
  }

  r.events = net.TotalEventsProcessed();
  r.policy_drops = net.total_policy_drops();
  if (traced) {
    r.slice_walk_s.assign(slices, 0.0);
    for (std::size_t i = 0; i < wrappers.size(); ++i) {
      const TimedProcessor& w = *wrappers[i];
      r.walks += w.walks();
      r.walk_drops += w.drops();
      for (std::size_t j = 0; j < slices; ++j) r.slice_walk_s[j] += 1e-9 * static_cast<double>(w.ns_by_slice()[j]);
      r.walk_ns[wrapped[i]] = w.ns_by_slice();
      // Reinstall the real processor before the wrapper is destroyed.
      net.switch_at(wrapped[i])->SetProcessor(w.inner());
    }
    // The TE solve the orchestrator runs at deploy, repeated on the same
    // topology and demands (the solver is a pure function of them).
    for (int i = 0; i < 11; ++i) {
      const auto a = Clock::now();
      const auto te = scheduler::SolveTe(net.topology(), s.normal.demands,
                                         scheduler::TeOptions{.k_paths = 2, .refine_rounds = 2});
      r.te_solve_s.push_back(Seconds(a, Clock::now()));
      if (te.paths.size() != s.normal.demands.size()) r.outcome_error = "TE solve lost a demand";
    }
  }
  r.rec = std::move(rec);
  return r;
}

// ring_tcp: RunScaleFig3 builds, runs and collects in one call, so its run
// time includes its (millisecond) set-up.  It draws no random numbers: the
// output is the same for every seed.  Its run cannot be sliced from outside
// RunScaleFig3, so given a reference kernel, scaled_run_s scales the whole
// run by the mean of the samples just before and just after it.
RunResult RunRing(std::uint64_t seed, SpanLog* log, RefKernel* ref) {
  RunResult r;
  auto rec = std::make_unique<telemetry::Recorder>();
  const SimTime duration = Duration(Kind::kRing);
  const auto opt = RingOptions(seed, duration, rec.get());
  const double before = ref != nullptr ? ref->Sample() : 0.0;
  const auto t0 = Clock::now();
  const int run_span = log ? log->Open("run", -1) : -1;
  const scenarios::ScaleFig3Result res = scenarios::RunScaleFig3(opt);
  const int export_span = log ? log->Open("export", run_span) : -1;
  r.doc = Export(*rec);
  if (log) {
    log->Close(export_span);
    log->Close(run_span);
  }
  r.run_s = Seconds(t0, Clock::now());
  if (ref != nullptr) r.scaled_run_s = r.run_s * RefKernel::kNominalS / (0.5 * (before + ref->Sample()));
  r.events = res.events_processed;
  // Offered demand: every flow's application-bounded rate over the whole run.
  const double offered_bytes = static_cast<double>(res.flows) * opt.demand_bps / 8.0 * ToSeconds(duration);
  r.goodput = offered_bytes > 0 ? static_cast<double>(res.delivered_bytes) / offered_bytes : 0.0;
  if (r.goodput < 0.25) r.outcome_error = "ring_tcp: under a quarter of the offered TCP demand delivered";
  r.rec = std::move(rec);
  return r;
}

RunResult Run(Kind k, std::uint64_t seed, bool traced, SpanLog* log, RefKernel* ref = nullptr) {
  return k == Kind::kRing ? RunRing(seed, log, ref) : RunBuilt(k, seed, traced, log, ref);
}

// One set-up, timed: Build for the builder workloads, a zero-duration
// RunScaleFig3 (no flow has started by then) for ring_tcp.
double SetupOnce(Kind k, std::uint64_t seed) {
  telemetry::Recorder rec;
  const auto t0 = Clock::now();
  if (k == Kind::kRing) {
    (void)scenarios::RunScaleFig3(RingOptions(seed, 0, &rec));
    return Seconds(t0, Clock::now());
  }
  scenarios::BuiltScenario s = Configure(k, seed, &rec).Build();
  const double dt = Seconds(t0, Clock::now());
  s.net->SetTelemetry(nullptr);
  return dt;
}

// One set-up sample: the summed set-up time of a batch of about 100 ms of
// set-ups, per set-up.  A single sub-millisecond Build is too short to
// sample on a shared machine.
double SetupSample(Kind k, std::uint64_t seed) {
  const int batch = k == Kind::kRing ? 4 : 100;
  double total = 0.0;
  for (int i = 0; i < batch; ++i) total += SetupOnce(k, seed);
  return total / batch;
}

// ---- Output helpers ----

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string List(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += Num(v[i]);
  }
  return out + "]";
}

std::uint64_t CounterOr0(const telemetry::Recorder& rec, const std::string& name) {
  const auto& c = rec.metrics().counters();
  auto it = c.find(name);
  return it == c.end() ? 0 : it->second.value();
}

double GaugeOr0(const telemetry::Recorder& rec, const std::string& name) {
  const auto& g = rec.metrics().gauges();
  auto it = g.find(name);
  return it == g.end() ? 0.0 : it->second.value();
}

std::uint64_t SumLinkTx(const telemetry::Recorder& rec) {
  std::uint64_t total = 0;
  for (const auto& [name, c] : rec.metrics().counters()) {
    if (name.starts_with("link.") && name.ends_with(".tx_packets")) total += c.value();
  }
  return total;
}

// Peak resident set of this process in MiB, or -1 when it cannot be read.
// VmHWM, not ru_maxrss: Linux carries ru_maxrss over from the parent across
// fork and exec, so a driver started from a larger process would report that
// process's peak.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib < 0 ? -1.0 : static_cast<double>(kib) / 1024.0;
}

// Wall nanoseconds per steady_clock read, one sample per batch of reads.
std::vector<double> ClockReadNs() {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    constexpr int kReads = 200'000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kReads; ++i) (void)Clock::now();
    batches.push_back(1e9 * Seconds(t0, Clock::now()) / kReads);
  }
  return batches;
}

struct Checks {
  int attempted = 0;
  std::vector<std::string> failures;
  std::string first_doc;  // first export of this seed in the invocation

  void Record(const RunResult& r, const char* label) {
    ++attempted;
    std::string why = r.outcome_error;
    if (why.empty()) {
      if (first_doc.empty()) first_doc = r.doc;
      else if (r.doc != first_doc) why = std::string(label) + " export differs from the first export of this seed";
    }
    if (!why.empty()) failures.push_back(why);
  }
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <fig3_lfa|syn_flood|ring_tcp> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") workload = val;
    else if (flag == "--seed") seed = std::strtoull(val, nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(val, nullptr);
    else if (flag == "--trace") trace = std::atoi(val);
    else return Usage();
  }
  if (argc % 2 != 1 || seconds <= 0.0 || (trace != 0 && trace != 1)) return Usage();
  Kind kind;
  if (workload == "fig3_lfa") kind = Kind::kFig3;
  else if (workload == "syn_flood") kind = Kind::kSyn;
  else if (workload == "ring_tcp") kind = Kind::kRing;
  else return Usage();

  Checks checks;
  std::string out = "{\"workload\":\"" + workload + "\",\"seed\":" + std::to_string(seed) +
                    ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\",\"compiler\":\"" PERFBENCH_COMPILER "\"";

  if (trace == 0) {
    // One set-up sample before each run, so a short burst of load on the
    // machine cannot land on all of them at once.  The first batch, which
    // grows the heap from nothing, is a warm-up and is not reported; so is
    // the kernel's first sample.  The reported times are scaled by the
    // kernel's time next to them: each set-up batch by the mean of the
    // samples on either side, each run as Run() describes.
    RefKernel ref;
    (void)ref.Sample();
    (void)SetupSample(kind, seed);
    std::vector<double> setup, run_s, goodput;
    std::vector<double> raw_setup, raw_run, ref_s;
    const auto t0 = Clock::now();
    // At least three runs, so every invocation checks same-seed identity.
    while (run_s.size() < 3 || Seconds(t0, Clock::now()) < seconds) {
      const double before = ref.Sample();
      const double su = SetupSample(kind, seed);
      const double around = 0.5 * (before + ref.Sample());
      const RunResult r = Run(kind, seed, false, nullptr, &ref);
      checks.Record(r, "untraced");
      setup.push_back(su * RefKernel::kNominalS / around);
      run_s.push_back(r.scaled_run_s);
      raw_setup.push_back(su);
      raw_run.push_back(r.run_s);
      ref_s.push_back(around);
      goodput.push_back(r.goodput);
    }
    const double rss = PeakRssMb();
    if (rss < 0.0) {
      std::fprintf(stderr, "cannot read VmHWM from /proc/self/status\n");
      return 1;
    }
    out += ",\"samples\":{\"setup_s\":" + List(setup) + ",\"run_s\":" + List(run_s) +
           ",\"legit_goodput_frac\":" + List(goodput) + ",\"peak_rss_mb\":" + List({rss}) + "}" +
           ",\"raw_setup_s\":" + List(raw_setup) + ",\"raw_run_s\":" + List(raw_run) +
           ",\"ref_s\":" + List(ref_s) + ",\"ref_nominal_s\":" + Num(RefKernel::kNominalS);
  } else {
    // Timing figures get one sample per run of the kind that measures them;
    // counts, which every run of the seed repeats, get one sample.
    std::map<std::string, std::vector<double>> samples;
    auto add = [&samples](const char* name, double v) { samples[name].push_back(v); };
    auto frac = [](std::uint64_t a, std::uint64_t b) {
      return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    const auto attack_slice = static_cast<std::size_t>(kAttackAt / kSecond);
    for (double ns : ClockReadNs()) add("telemetry.clock_read_ns", ns);

    std::vector<double> untraced_s, traced_s;
    RunResult first_traced;
    std::unique_ptr<telemetry::Recorder> untraced_rec;
    SpanLog log;
    const auto t0 = Clock::now();
    // Alternate the order of each untraced/traced pair so slow drift in the
    // machine does not land on one side.
    for (int pair = 0; pair < 1 || Seconds(t0, Clock::now()) < seconds; ++pair) {
      for (int side = 0; side < 2; ++side) {
        const bool traced = (side == 0) == (pair % 2 == 1);
        RunResult r = Run(kind, seed, traced, (traced && traced_s.empty()) ? &log : nullptr);
        checks.Record(r, traced ? "traced" : "untraced");
        if (!traced) {
          untraced_s.push_back(r.run_s);
          const std::uint64_t hops = SumLinkTx(*r.rec);
          add("sim.events_per_s", static_cast<double>(r.events) / r.run_s);
          add("sim.ns_per_hop", hops == 0 ? 0.0 : 1e9 * r.run_s / static_cast<double>(hops));
          if (!untraced_rec) untraced_rec = std::move(r.rec);
          continue;
        }
        traced_s.push_back(r.run_s);
        for (double te : r.te_solve_s) add("scheduler.te_solve_s", te);
        if (r.te_solve_s.empty()) add("scheduler.te_solve_s", 0.0);
        // Wall seconds per simulated second before and during the attack.
        // ring_tcp has no attack and cannot be sliced from outside
        // RunScaleFig3: its whole run counts as pre-attack, its attack as 0.
        double pre = 0.0, during = 0.0, walk_s = 0.0, sliced_s = 0.0;
        for (std::size_t i = 0; i < r.slice_wall_s.size(); ++i) {
          (i < attack_slice ? pre : during) += r.slice_wall_s[i];
          walk_s += r.slice_walk_s[i];
          sliced_s += r.slice_wall_s[i];
        }
        if (r.slice_wall_s.empty()) {
          pre = r.run_s / ToSeconds(Duration(kind));
        } else {
          pre /= static_cast<double>(attack_slice);
          during /= static_cast<double>(r.slice_wall_s.size() - attack_slice);
        }
        add("sim.wall_per_sim_s.pre_attack", pre);
        add("sim.wall_per_sim_s.attack", during);
        add("dataplane.ns_per_walk", r.walks == 0 ? 0.0 : 1e9 * walk_s / static_cast<double>(r.walks));
        add("dataplane.walk_share", sliced_s == 0.0 ? 0.0 : walk_s / sliced_s);
        if (first_traced.doc.empty()) first_traced = std::move(r);
      }
    }
    for (int i = 0; i < 11; ++i) {
      const auto a = Clock::now();
      const std::string doc = Export(*untraced_rec);
      add("telemetry.export_s", Seconds(a, Clock::now()));
    }

    const RunResult& t = first_traced;
    const telemetry::Recorder& rec = *untraced_rec;
    auto count = [&add](const char* name, std::uint64_t v) { add(name, static_cast<double>(v)); };
    count("sim.events", t.events);
    add("sim.peak_pending", GaugeOr0(rec, "sim.event_queue.peak_pending"));
    count("sim.pool_slots", CounterOr0(rec, "net.pool.slots"));
    add("sim.pool_recycle_frac", frac(CounterOr0(rec, "net.pool.recycled"), CounterOr0(rec, "net.pool.acquires")));
    count("sim.drop_tail_drops", CounterOr0(rec, "net.link.drop_tail_drops"));
    count("sim.tcp_retransmits", CounterOr0(rec, "net.tcp.retransmits"));
    count("dataplane.walks", t.walks);
    add("dataplane.drop_frac", frac(t.walk_drops, t.walks));
    count("runtime.mode_applications", CounterOr0(rec, "mode_protocol.mode_applications"));
    count("runtime.probes_forwarded", CounterOr0(rec, "mode_protocol.probes_forwarded"));
    count("runtime.flood_retries", CounterOr0(rec, "mode_protocol.flood_retries"));
    count("boosters.cookies_sent", t.cookies_sent);
    count("boosters.handshakes_validated", t.handshakes_validated);
    add("boosters.filter_insert_fail_frac", frac(t.filter_insert_failures, t.filter_inserts));
    count("boosters.policy_drops", t.policy_drops);
    count("telemetry.doc_bytes", t.doc.size());
    count("attacks.flood_syns", t.flood_syns);
    count("attacks.rolls", t.rolls);

    out += ",\"samples\":{";
    bool first_sample = true;
    for (const auto& [name, v] : samples) {
      out += (first_sample ? "\"" : ",\"") + name + "\":" + List(v);
      first_sample = false;
    }
    out += "},\"untraced_run_s\":" + List(untraced_s) + ",\"traced_run_s\":" + List(traced_s);
    out += ",\"spans\":[";
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      const Span& sp = log.spans()[i];
      out += std::string(i ? "," : "") + "{\"name\":\"" + sp.name + "\",\"parent\":" +
             std::to_string(sp.parent) + ",\"start_s\":" + Num(sp.start_s) + ",\"end_s\":" +
             Num(sp.end_s) + "}";
    }
    out += "],\"walk_ns_by_switch_slice\":{";
    bool first = true;
    for (const auto& [sw, ns] : t.walk_ns) {
      std::vector<double> v(ns.begin(), ns.end());
      out += std::string(first ? "" : ",") + "\"" + std::to_string(sw) + "\":" + List(v);
      first = false;
    }
    out += "}";
  }

  out += ",\"attempted\":" + std::to_string(checks.attempted) + ",\"failures\":[";
  for (std::size_t i = 0; i < checks.failures.size(); ++i) {
    out += (i ? ",\"" : "\"") + checks.failures[i] + "\"";
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}
