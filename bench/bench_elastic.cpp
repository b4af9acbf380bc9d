// Elastic-orchestration bench: the acceptance numbers behind BENCH_elastic.json.
//
//   1. Headline: three seed-1 runs of the multi_tenant_fig scenario —
//      quiet (no attacks), elastic (attacks + ElasticOrchestrator), static
//      (attacks, same deployment, no control loop) — concurrent rolling LFA
//      in region 1 and SYN flood in region 3 on the ring fabric with a
//      deliberately tightened stage budget.  The CI gates hold:
//        - both attacks mitigated (illusion drops > 0, cookies validated > 0),
//        - zero over-budget switch-epochs (shedding kept every switch legal),
//        - at least one shed (the capacity fight actually happened),
//        - full retirement post-attack (the fabric returns to the default
//          program; teardown completion time reported),
//        - defended goodput >= the static arm's.
//   2. Latency: scale-up reaction (first elastic install after the attack
//      began) and post-attack teardown time, both in sim-time — machine
//      independent, gated with fixed bounds.
//   3. Determinism: the elastic run re-executed with full telemetry; the
//      exported JSON (including the elastic.* counters and decision events)
//      must be byte-identical (exit 1 otherwise).
//
// Not a google-benchmark binary: the gates are correctness verdicts and
// sim-time latencies, not ns/op.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "scenarios/multi_tenant_fig.h"
#include "telemetry/export.h"

namespace {

using namespace fastflex;

scenarios::MultiTenantOptions BenchOptions(bool elastic, bool attacks) {
  scenarios::MultiTenantOptions opt;
  opt.seed = 1;
  opt.elastic = elastic;
  opt.attacks = attacks;
  return opt;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

void PrintArm(const char* name, const scenarios::MultiTenantResult& r) {
  std::printf(
      "%-8s sessions=%d completed=%d gave_up=%d delivered=%llu  "
      "lfa[alarm=%.2fs rolls=%d drops=%llu frac=%.2f]  "
      "syn[syns=%llu evict=%llu cookies=%llu valid=%llu frac=%.2f]\n"
      "%-8s loop[epochs=%llu replans=%llu ups=%llu sheds=%llu downs=%llu "
      "rejects=%llu over=%llu up_at=%.2fs down_at=%.2fs retired=%d]\n",
      name, r.sessions, r.completed, r.gave_up,
      static_cast<unsigned long long>(r.delivered_bytes), ToSeconds(r.lfa_alarm_at),
      r.attacker_rolls, static_cast<unsigned long long>(r.illusion_drops),
      r.lfa_mode_frac_peak, static_cast<unsigned long long>(r.flood_syns),
      static_cast<unsigned long long>(r.victim_half_open_evictions),
      static_cast<unsigned long long>(r.cookies_sent),
      static_cast<unsigned long long>(r.handshakes_validated), r.syn_mode_frac_peak, "",
      static_cast<unsigned long long>(r.epochs),
      static_cast<unsigned long long>(r.replans),
      static_cast<unsigned long long>(r.scale_ups),
      static_cast<unsigned long long>(r.sheds),
      static_cast<unsigned long long>(r.teardowns),
      static_cast<unsigned long long>(r.install_rejects),
      static_cast<unsigned long long>(r.over_budget), ToSeconds(r.first_scale_up_at),
      ToSeconds(r.last_teardown_at), r.retired ? 1 : 0);
}

}  // namespace

int main() {
  bool ok = true;
  const auto wall_start = std::chrono::steady_clock::now();

  // ---- 1. Headline arms ----
  const auto quiet = scenarios::RunMultiTenantFig(BenchOptions(true, false));
  const auto elastic = scenarios::RunMultiTenantFig(BenchOptions(true, true));
  const auto fixed = scenarios::RunMultiTenantFig(BenchOptions(false, true));
  PrintArm("quiet", quiet);
  PrintArm("elastic", elastic);
  PrintArm("static", fixed);

  const double goodput_vs_quiet = Ratio(elastic.delivered_bytes, quiet.delivered_bytes);
  const double goodput_vs_static = Ratio(elastic.delivered_bytes, fixed.delivered_bytes);
  const double completed_vs_static =
      Ratio(static_cast<std::uint64_t>(elastic.completed),
            static_cast<std::uint64_t>(fixed.completed));

  // The quiet arm must show an idle loop: epochs tick, nothing scales.
  if (quiet.scale_ups != 0 || quiet.sheds != 0 || quiet.teardowns != 0) {
    std::cerr << "FAIL: quiet arm was not idle (ups=" << quiet.scale_ups
              << " sheds=" << quiet.sheds << " downs=" << quiet.teardowns << ")\n";
    ok = false;
  }
  // LFA tenant mitigated: detector fired, the illusion pair scaled up and
  // actually dropped attack traffic.
  if (elastic.lfa_alarm_at == 0) {
    std::cerr << "FAIL: LFA detector never fired in the elastic arm\n";
    ok = false;
  }
  if (elastic.illusion_drops == 0) {
    std::cerr << "FAIL: no illusion drops — LFA mitigation never engaged\n";
    ok = false;
  }
  // SYN tenant mitigated: the proxy scaled up, cookied the flood, and
  // validated legit handshakes through.
  if (elastic.cookies_sent == 0 || elastic.handshakes_validated == 0) {
    std::cerr << "FAIL: SYN proxy never engaged (cookies=" << elastic.cookies_sent
              << " validated=" << elastic.handshakes_validated << ")\n";
    ok = false;
  }
  // The capacity fight: syn_mitigation does not fit the tightened budget
  // until something sheds, and no switch may ever sit over budget.
  if (elastic.sheds == 0) {
    std::cerr << "FAIL: no sheds — the capacity fight never happened\n";
    ok = false;
  }
  if (elastic.over_budget != 0) {
    std::cerr << "FAIL: " << elastic.over_budget << " over-budget switch-epochs\n";
    ok = false;
  }
  if (elastic.scale_ups == 0 || elastic.teardowns == 0) {
    std::cerr << "FAIL: loop inactive (ups=" << elastic.scale_ups
              << " downs=" << elastic.teardowns << ")\n";
    ok = false;
  }
  // Full retirement: every loop-installed booster torn down post-attack.
  if (!elastic.retired) {
    std::cerr << "FAIL: loop-installed boosters still present at run end\n";
    ok = false;
  }
  // The defense must not cost goodput vs leaving the static program alone.
  if (goodput_vs_static < 1.0) {
    std::cerr << "FAIL: defended goodput ratio vs static " << goodput_vs_static
              << " < 1.0\n";
    ok = false;
  }

  const double scale_up_latency_ms =
      elastic.first_scale_up_at == 0
          ? -1.0
          : ToMillis(elastic.first_scale_up_at - (8 * kSecond));
  const double teardown_after_stop_ms =
      elastic.last_teardown_at == 0
          ? -1.0
          : ToMillis(elastic.last_teardown_at - (30 * kSecond));
  std::printf(
      "goodput: elastic/quiet=%.3f elastic/static=%.3f  "
      "scale-up latency=%.0fms  teardown after stop=%.0fms\n",
      goodput_vs_quiet, goodput_vs_static, scale_up_latency_ms, teardown_after_stop_ms);

  // ---- 3. Telemetry determinism of the elastic run ----
  auto instrumented = [] {
    telemetry::Recorder rec;
    auto opt = BenchOptions(true, true);
    opt.recorder = &rec;
    (void)scenarios::RunMultiTenantFig(opt);
    return telemetry::ToJson(rec);
  };
  const std::string json_a = instrumented();
  const bool telemetry_identical = json_a == instrumented();
  if (!telemetry_identical) {
    std::cerr << "FAIL: elastic-run telemetry differs between same-seed reruns\n";
    ok = false;
  }

  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;

  // ---- The gated artifact ----
  std::ofstream out("BENCH_elastic.json", std::ios::binary);
  out << "{\n"
      << "  \"schema\": \"fastflex.bench_elastic.v1\",\n"
      << "  \"scenario\": \"multi_tenant_fig\",\n"
      << "  \"headline\": {\n"
      << "    \"seed\": 1,\n"
      << "    \"sessions\": " << elastic.sessions << ",\n"
      << "    \"quiet_completed\": " << quiet.completed << ",\n"
      << "    \"elastic_completed\": " << elastic.completed << ",\n"
      << "    \"static_completed\": " << fixed.completed << ",\n"
      << "    \"goodput_ratio_vs_quiet\": " << Num(goodput_vs_quiet) << ",\n"
      << "    \"goodput_ratio_vs_static\": " << Num(goodput_vs_static) << ",\n"
      << "    \"completed_ratio_vs_static\": " << Num(completed_vs_static) << "\n"
      << "  },\n"
      << "  \"lfa_tenant\": {\n"
      << "    \"alarm_ms\": " << elastic.lfa_alarm_at / kMillisecond << ",\n"
      << "    \"attacker_rolls\": " << elastic.attacker_rolls << ",\n"
      << "    \"illusion_drops\": " << elastic.illusion_drops << ",\n"
      << "    \"mode_frac_peak\": " << Num(elastic.lfa_mode_frac_peak) << "\n"
      << "  },\n"
      << "  \"syn_tenant\": {\n"
      << "    \"flood_syns\": " << elastic.flood_syns << ",\n"
      << "    \"victim_evictions_static\": " << fixed.victim_half_open_evictions << ",\n"
      << "    \"cookies_sent\": " << elastic.cookies_sent << ",\n"
      << "    \"handshakes_validated\": " << elastic.handshakes_validated << ",\n"
      << "    \"mode_frac_peak\": " << Num(elastic.syn_mode_frac_peak) << "\n"
      << "  },\n"
      << "  \"elasticity\": {\n"
      << "    \"epochs\": " << elastic.epochs << ",\n"
      << "    \"replans\": " << elastic.replans << ",\n"
      << "    \"scale_ups\": " << elastic.scale_ups << ",\n"
      << "    \"sheds\": " << elastic.sheds << ",\n"
      << "    \"teardowns\": " << elastic.teardowns << ",\n"
      << "    \"install_rejects\": " << elastic.install_rejects << ",\n"
      << "    \"over_budget_switch_epochs\": " << elastic.over_budget << ",\n"
      << "    \"scale_up_latency_ms\": " << Num(scale_up_latency_ms) << ",\n"
      << "    \"teardown_after_stop_ms\": " << Num(teardown_after_stop_ms) << ",\n"
      << "    \"retired\": " << (elastic.retired ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"determinism\": {\n"
      << "    \"telemetry_identical\": " << (telemetry_identical ? "true" : "false")
      << "\n  },\n"
      << "  \"timing\": {\n"
      << "    \"cpus\": " << std::thread::hardware_concurrency() << ",\n"
      << "    \"wall_seconds\": " << Num(wall.count()) << "\n  }\n}\n";

  std::printf("telemetry artifact: BENCH_elastic.json\n");
  return ok ? 0 : 1;
}
