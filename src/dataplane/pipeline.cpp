#include "dataplane/pipeline.h"

#include <algorithm>

namespace fastflex::dataplane {

bool Pipeline::Install(std::shared_ptr<Ppm> ppm) {
  if (!CanFit(ppm->demand())) return false;
  used_ += ppm->demand();
  modules_.push_back(std::move(ppm));
  return true;
}

std::shared_ptr<Ppm> Pipeline::InstallShared(std::shared_ptr<Ppm> ppm) {
  for (const auto& m : modules_) {
    if (m->signature() == ppm->signature()) return m;
  }
  if (!Install(ppm)) return nullptr;
  return ppm;
}

bool Pipeline::Uninstall(const std::string& name) {
  auto it = std::find_if(modules_.begin(), modules_.end(),
                         [&](const auto& m) { return m->name() == name; });
  if (it == modules_.end()) return false;
  used_ -= (*it)->demand();
  modules_.erase(it);
  return true;
}

void Pipeline::Clear() {
  modules_.clear();
  used_ = ResourceVector{};
}

void Pipeline::Process(sim::PacketContext& ctx) {
  if (telem_ != nullptr) [[unlikely]] {
    // Out-of-line so the detached walk below keeps the pre-telemetry
    // codegen; its only added cost is this branch.
    ProcessInstrumented(ctx);
    return;
  }
  for (const auto& m : modules_) {
    const std::uint32_t req = m->required_mode();
    if (req != mode::kAlwaysOn && (req & active_modes_) == 0) continue;
    m->count_packet();
    m->Process(ctx);
    if (ctx.drop || ctx.consume) return;
  }
}

void Pipeline::ProcessInstrumented(sim::PacketContext& ctx) {
  telemetry::ProfScope prof_scope(prof_, telemetry::ProfSite::kPipelineWalk);
  ++walks_;
  hooks_.walks->Inc();
  for (const auto& m : modules_) {
    const std::uint32_t req = m->required_mode();
    if (req != mode::kAlwaysOn && (req & active_modes_) == 0) {
      ++gated_skips_;
      continue;
    }
    m->count_packet();
    m->Process(ctx);
    if (ctx.drop || ctx.consume) {
      (ctx.drop ? hooks_.drops : hooks_.consumes)->Inc();
      return;
    }
  }
}

void Pipeline::SetTelemetry(telemetry::Recorder* recorder, const std::string& prefix) {
  telem_ = recorder;
  prof_ = recorder != nullptr ? recorder->prof().enabled_self() : nullptr;
  if (recorder == nullptr) {
    hooks_ = TelemetryHooks{};
    return;
  }
  auto& m = recorder->metrics();
  hooks_.walks = &m.GetCounter(prefix + ".walks");
  hooks_.drops = &m.GetCounter(prefix + ".drops");
  hooks_.consumes = &m.GetCounter(prefix + ".consumes");
}

void Pipeline::CollectTelemetry(telemetry::Recorder& recorder,
                                const std::string& prefix) const {
  auto& m = recorder.metrics();
  m.GetCounter(prefix + ".walks").Set(walks_);
  m.GetCounter(prefix + ".gated_skips").Set(gated_skips_);
  m.GetGauge(prefix + ".active_modes").Set(static_cast<double>(active_modes_));
  m.GetCounter(prefix + ".modules").Set(modules_.size());
  m.GetGauge(prefix + ".used.stages").Set(used_.stages);
  m.GetGauge(prefix + ".used.sram_mb").Set(used_.sram_mb);
  m.GetGauge(prefix + ".used.tcam_entries").Set(used_.tcam_entries);
  m.GetGauge(prefix + ".used.alus").Set(used_.alus);
  m.GetGauge(prefix + ".capacity.stages").Set(capacity_.stages);
  m.GetGauge(prefix + ".capacity.sram_mb").Set(capacity_.sram_mb);
  m.GetGauge(prefix + ".capacity.tcam_entries").Set(capacity_.tcam_entries);
  m.GetGauge(prefix + ".capacity.alus").Set(capacity_.alus);
  for (const auto& mod : modules_) {
    m.GetCounter(prefix + ".module." + mod->name() + ".packets")
        .Set(mod->packets_processed());
  }
}

Address Pipeline::TracerouteReportAddress(const sim::Packet& probe, Address own) {
  Address report = own;
  for (const auto& m : modules_) {
    const std::uint32_t req = m->required_mode();
    if (req != mode::kAlwaysOn && (req & active_modes_) == 0) continue;
    report = m->TracerouteReportAddress(probe, report);
  }
  return report;
}

Ppm* Pipeline::Find(const std::string& name) const {
  for (const auto& m : modules_)
    if (m->name() == name) return m.get();
  return nullptr;
}

Ppm* Pipeline::FindBySignature(const PpmSignature& sig) const {
  for (const auto& m : modules_)
    if (m->signature() == sig) return m.get();
  return nullptr;
}

}  // namespace fastflex::dataplane
