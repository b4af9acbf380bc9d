// Fault bench: failover latency and mode-reconvergence time under the
// fault-injected rolling-LFA scenario (faulty_fig3), plus its determinism
// contracts.
//
//   1. Headline: the seed-1 acceptance run, executed twice with full
//      telemetry; asserts the exported artifact (fault.* events included,
//      prof excluded) is byte-identical across the reruns (exit 1
//      otherwise) and reports the failover / reconvergence latencies.  Both are sim-time quantities,
//      so the CI gate can bound them with machine-independent thresholds.
//   2. Sweep: a 6-seed faulty grid through exp::Runner at 1 and 4 worker
//      threads; asserts the aggregated artifact is byte-identical at both
//      thread counts — fault injection must not break the runner's
//      determinism contract.
//   3. Writes BENCH_fault.json, diffed against bench/baselines/ by the CI
//      bench-gate job (see bench/baselines/gates.json).
//
// Not a google-benchmark binary for the same reason bench_sweep is not:
// the determinism asserts are the point, not ns/op resolution.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "exp/runner.h"
#include "exp/sweep.h"
#include "scenarios/faulty_fig3.h"
#include "telemetry/export.h"

namespace {

using namespace fastflex;

constexpr int kSweepCells = 6;

scenarios::FaultyFig3Options SweepOptions(std::uint64_t seed) {
  scenarios::FaultyFig3Options opt;
  opt.seed = seed;
  opt.duration = 26 * kSecond;
  opt.attack_at = 8 * kSecond;
  opt.link_fault_at = 14 * kSecond;
  opt.link_repair_after = 6 * kSecond;
  opt.crash_at = 18 * kSecond;
  opt.reboot_after = 2 * kSecond;
  return opt;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CellJson(const scenarios::FaultyFig3Result& r) {
  std::string s = "{";
  s += "\"failover_latency_ms\": " + std::to_string(r.failover_latency / kMillisecond);
  s += ", \"reconverge_ms\": " + std::to_string(r.reconverge_latency / kMillisecond);
  s += ", \"failovers\": " + std::to_string(r.failovers);
  s += ", \"no_backup\": " + std::to_string(r.no_backup);
  s += ", \"flood_retries\": " + std::to_string(r.flood_retries);
  s += ", \"resyncs\": " + std::to_string(r.resyncs);
  s += ", \"fault_records\": " + std::to_string(r.fault_records);
  s += ", \"mean_during_attack\": " + Num(r.fig3.mean_during_attack);
  s += "}";
  return s;
}

exp::SweepSpec BuildSpec() {
  exp::SweepSpec spec;
  spec.name = "faulty_fig3";
  spec.base_seed = 1;
  for (int r = 0; r < kSweepCells; ++r) {
    exp::SweepCell cell;
    cell.name = "faulty-fastflex/r" + std::to_string(r);
    cell.run = [](std::uint64_t seed) {
      return CellJson(scenarios::RunFaultyFig3(SweepOptions(seed)));
    };
    spec.cells.push_back(std::move(cell));
  }
  return spec;
}

}  // namespace

int main() {
  // ---- 1. Headline seed-1 acceptance run, replayed for bit-identity ----
  scenarios::FaultyFig3Options headline_opt;  // the documented defaults
  telemetry::Recorder rec_a;
  headline_opt.recorder = &rec_a;
  const auto headline = scenarios::RunFaultyFig3(headline_opt);
  telemetry::Recorder rec_b;
  headline_opt.recorder = &rec_b;
  (void)scenarios::RunFaultyFig3(headline_opt);

  const telemetry::ExportOptions no_prof{.include_prof = false};
  const bool fault_identical =
      telemetry::ToJson(rec_a, no_prof) == telemetry::ToJson(rec_b, no_prof);
  if (!fault_identical) {
    std::cerr << "FAIL: fault-run telemetry differs between same-seed reruns\n";
  }
  std::printf(
      "seed=1  failover_latency=%lld ms  reconverge=%lld ms  failovers=%llu  "
      "flood_retries=%llu  resyncs=%llu  fault_records=%llu\n",
      static_cast<long long>(headline.failover_latency / kMillisecond),
      static_cast<long long>(headline.reconverge_latency / kMillisecond),
      static_cast<unsigned long long>(headline.failovers),
      static_cast<unsigned long long>(headline.flood_retries),
      static_cast<unsigned long long>(headline.resyncs),
      static_cast<unsigned long long>(headline.fault_records));

  // ---- 2. Multi-seed sweep at 1 and 4 threads ----
  const exp::SweepSpec spec = BuildSpec();
  std::string reference_json;
  bool sweep_identical = true;
  double cells_per_sec[2] = {0, 0};
  const unsigned thread_counts[2] = {1, 4};
  for (std::size_t t = 0; t < 2; ++t) {
    exp::Runner runner(exp::RunnerOptions{.threads = thread_counts[t]});
    const auto start = std::chrono::steady_clock::now();
    const exp::SweepReport report = runner.Run(spec);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    cells_per_sec[t] = static_cast<double>(spec.cells.size()) / elapsed.count();
    const std::string json = report.ToJson();
    if (t == 0) {
      reference_json = json;
      if (report.ok_cells() != spec.cells.size()) {
        std::cerr << "FAIL: " << (spec.cells.size() - report.ok_cells())
                  << " sweep cells errored\n";
        for (const auto& c : report.cells) {
          if (!c.ok) std::cerr << "  cell " << c.index << " (" << c.name
                               << "): " << c.error << "\n";
        }
        return 1;
      }
    } else if (json != reference_json) {
      sweep_identical = false;
      std::cerr << "FAIL: faulty sweep artifact at " << thread_counts[t]
                << " threads differs from the 1-thread artifact\n";
    }
    std::printf("threads=%u  cells=%zu  wall=%.2fs  cells/sec=%.2f\n",
                thread_counts[t], spec.cells.size(), elapsed.count(),
                cells_per_sec[t]);
  }

  // ---- 3. The gated artifact ----
  const unsigned cpus = std::thread::hardware_concurrency();
  std::ofstream out("BENCH_fault.json", std::ios::binary);
  out << "{\n"
      << "  \"schema\": \"fastflex.bench_fault.v1\",\n"
      << "  \"scenario\": \"faulty_fig3\",\n"
      << "  \"counters\": {\"cells\": " << spec.cells.size()
      << ", \"ok_cells\": " << spec.cells.size()
      << ", \"sweep_artifact_bytes\": " << reference_json.size() << "},\n"
      << "  \"determinism\": {\n"
      << "    \"fault_section_identical\": "
      << (fault_identical ? "true" : "false") << ",\n"
      << "    \"identical_1_vs_4\": " << (sweep_identical ? "true" : "false")
      << "\n  },\n"
      << "  \"headline\": {\n"
      << "    \"seed\": 1,\n"
      << "    \"failover_latency_ms\": " << headline.failover_latency / kMillisecond
      << ",\n"
      << "    \"reconverge_ms\": " << headline.reconverge_latency / kMillisecond
      << ",\n"
      << "    \"failovers\": " << headline.failovers << ",\n"
      << "    \"no_backup\": " << headline.no_backup << ",\n"
      << "    \"flood_retries\": " << headline.flood_retries << ",\n"
      << "    \"resyncs\": " << headline.resyncs << ",\n"
      << "    \"fault_records\": " << headline.fault_records << ",\n"
      << "    \"mean_during_attack\": " << Num(headline.fig3.mean_during_attack)
      << "\n  },\n"
      << "  \"timing\": {\n"
      << "    \"cpus\": " << cpus << ",\n"
      << "    \"cells_per_sec_1\": " << Num(cells_per_sec[0]) << ",\n"
      << "    \"cells_per_sec_4\": " << Num(cells_per_sec[1]) << "\n"
      << "  }\n}\n";

  std::printf("telemetry artifact: BENCH_fault.json\n");
  return (fault_identical && sweep_identical) ? 0 : 1;
}
