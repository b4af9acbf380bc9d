#include "control/elastic.h"

#include <algorithm>
#include <limits>

#include "analyzer/analyzer.h"
#include "boosters/registry.h"
#include "dataplane/ppm.h"
#include "util/logging.h"

namespace fastflex::control {

std::vector<ElasticRule> ElasticPolicy::DefaultRules() {
  return {
      // Rolling-LFA pressure pulls in the illusion pair the default set may
      // have dropped (or a constrained deployment never had room for).
      ElasticRule{dataplane::mode::kLfaReroute,
                  {"topology_obfuscation", "packet_dropping"}},
      // SYN pressure pulls in the mitigation half of the split proxy; the
      // cheap detector half is expected to be resident (syn_detection).
      ElasticRule{dataplane::mode::kSynDefense, {"syn_mitigation"}},
  };
}

ElasticOrchestrator::ElasticOrchestrator(sim::Network* net, FastFlexOrchestrator* orch,
                                         ElasticPolicy policy,
                                         telemetry::Recorder* recorder)
    : net_(net), orch_(orch), policy_(std::move(policy)), recorder_(recorder) {}

void ElasticOrchestrator::Start() {
  if (running_) return;
  running_ = true;
  switches_.clear();
  regions_.clear();
  std::set<std::uint32_t> regions;
  for (const auto& n : net_->topology().nodes()) {
    if (n.kind != sim::NodeKind::kSwitch) continue;
    if (orch_->pipeline(n.id) == nullptr) continue;
    switches_.push_back(n.id);
    regions.insert(net_->switch_at(n.id)->region());
  }
  // Region 0 means "all switches" to FractionModeActive, so in a regioned
  // deployment an unlabeled switch cannot be scoped — it only participates
  // when the whole fabric is unregioned (sole region 0 = one global region).
  if (regions.size() > 1) regions.erase(0);
  regions_.assign(regions.begin(), regions.end());
  net_->events().ScheduleAfter(policy_.epoch, [this] { Tick(); });
}

void ElasticOrchestrator::Tick() {
  if (!running_) return;
  ++totals_.epochs;
  AuditBudgets();

  bool mix_changed = false;
  for (std::size_t i = 0; i < policy_.rules.size(); ++i) {
    const ElasticRule& rule = policy_.rules[i];
    for (std::uint32_t region : regions_) {
      RegionState& st = state_[i][region];
      const bool pressured =
          orch_->FractionModeActive(rule.mode_bits, region) >= policy_.pressure_frac;
      if (pressured) {
        st.quiet = 0;
        if (!st.active) {
          st.active = true;
          mix_changed = true;
        }
        ScaleUp(rule, region);
      } else if (st.active && ++st.quiet >= policy_.quiet_epochs &&
                 TearDown(rule, region)) {
        st.active = false;
        st.quiet = 0;
        mix_changed = true;
        // The next flare-up starts with a clean slate: boosters that could
        // not fit last time may fit now that the scale-ups retired.
        for (NodeId sw : switches_) {
          if (net_->switch_at(sw)->region() != region) continue;
          auto it = rejected_.find(sw);
          if (it == rejected_.end()) continue;
          for (const auto& b : rule.boosters) it->second.erase(b);
        }
      }
    }
  }
  if (mix_changed) Replan();
  net_->events().ScheduleAfter(policy_.epoch, [this] { Tick(); });
}

void ElasticOrchestrator::AuditBudgets() {
  for (NodeId sw : switches_) {
    const dataplane::Pipeline* p = orch_->pipeline(sw);
    if (p != nullptr && !p->used().FitsIn(p->capacity())) {
      ++totals_.over_budget;
      FF_LOG(kError) << "elastic: switch " << sw << " over budget (used "
                     << p->used().ToString() << ", capacity "
                     << p->capacity().ToString() << ")";
    }
  }
}

void ElasticOrchestrator::ScaleUp(const ElasticRule& rule, std::uint32_t region) {
  for (NodeId sw : switches_) {
    if (net_->switch_at(sw)->region() != region) continue;
    if (inflight_.count(sw) != 0) continue;
    std::vector<std::string> missing;
    for (const auto& b : rule.boosters) {
      if (orch_->BoosterInstalled(sw, b)) continue;
      auto rit = rejected_.find(sw);
      if (rit != rejected_.end() && rit->second.count(b) != 0) continue;
      missing.push_back(b);
    }
    if (missing.empty()) continue;

    inflight_.insert(sw);
    const ElasticRule* rp = &rule;  // rules live in policy_, stable
    runtime::ScalingManager::Plan plan;
    plan.victim = sw;
    plan.target = sw;  // self-repurpose: new program, no displaced state
    plan.grace = policy_.scaling.grace;
    plan.downtime = policy_.scaling.downtime;
    plan.reprogram = [this, sw, missing, rp] {
      for (const auto& b : missing) {
        if (orch_->BoosterInstalled(sw, b)) continue;
        if (InstallWithShedding(sw, b, *rp)) {
          loop_installed_[sw].insert(b);
          ++totals_.scale_ups;
          Record("scale_up", sw, b);
        }
      }
    };
    plan.done = [this, sw](const runtime::RepurposeReport&) {
      inflight_.erase(sw);
      ++totals_.repurposes;
    };
    orch_->scaling().Repurpose(std::move(plan));
  }
}

bool ElasticOrchestrator::TearDown(const ElasticRule& rule, std::uint32_t region) {
  bool done = true;
  for (NodeId sw : switches_) {
    if (net_->switch_at(sw)->region() != region) continue;
    auto it = loop_installed_.find(sw);
    if (it == loop_installed_.end()) continue;
    std::vector<std::string> present;
    for (const auto& b : rule.boosters) {
      if (it->second.count(b) != 0) present.push_back(b);
    }
    if (present.empty()) continue;
    done = false;                            // teardown completes async
    if (inflight_.count(sw) != 0) continue;  // retried next epoch

    inflight_.insert(sw);
    runtime::ScalingManager::Plan plan;
    plan.victim = sw;
    plan.target = sw;
    plan.grace = policy_.scaling.grace;
    plan.downtime = policy_.scaling.downtime;
    plan.reprogram = [this, sw, present] {
      for (const auto& b : present) {
        if (orch_->UninstallBooster(sw, b)) {
          ++totals_.teardowns;
          Record("teardown", sw, b);
        }
        loop_installed_[sw].erase(b);
      }
    };
    plan.done = [this, sw](const runtime::RepurposeReport&) {
      inflight_.erase(sw);
      ++totals_.repurposes;
    };
    orch_->scaling().Repurpose(std::move(plan));
  }
  return done;
}

bool ElasticOrchestrator::InstallWithShedding(NodeId sw, const std::string& booster,
                                              const ElasticRule& rule) {
  if (orch_->InstallBooster(sw, booster)) return true;
  auto& reg = boosters::Registry::Global();
  while (true) {
    // Lowest-value installed booster outside the incoming rule; Names() is
    // sorted, so value ties break on name — deterministic.
    std::string victim;
    int victim_value = std::numeric_limits<int>::max();
    for (const auto& name : reg.Names()) {
      if (name == booster) continue;
      if (std::find(rule.boosters.begin(), rule.boosters.end(), name) !=
          rule.boosters.end()) {
        continue;
      }
      const boosters::BoosterDef* def = reg.Find(name);
      if (def == nullptr || def->value >= policy_.never_shed_value) continue;
      if (def->value >= victim_value) continue;
      if (!orch_->BoosterInstalled(sw, name)) continue;
      victim = name;
      victim_value = def->value;
    }
    if (victim.empty()) {
      ++totals_.install_rejects;
      Record("reject", sw, booster);
      rejected_[sw].insert(booster);
      return false;
    }
    orch_->UninstallBooster(sw, victim);
    loop_installed_[sw].erase(victim);
    ++totals_.sheds;
    Record("shed", sw, victim);
    if (orch_->InstallBooster(sw, booster)) return true;
  }
}

void ElasticOrchestrator::Replan() {
  // Feasibility check for the new active mix: re-run the offline pipeline
  // (spec merge → clustering → placement) over default set + active
  // scale-ups, exactly as Deploy() solved the default program.
  std::vector<std::string> names = orch_->deployed_boosters();
  std::set<std::string> have(names.begin(), names.end());
  for (const auto& [idx, per_region] : state_) {
    for (const auto& [region, st] : per_region) {
      if (!st.active) continue;
      for (const auto& b : policy_.rules[idx].boosters) {
        if (have.insert(b).second) names.push_back(b);
      }
    }
  }
  const auto specs = boosters::SpecsFor(names);
  const auto merged = analyzer::Merge(specs);
  const auto clusters = analyzer::ClusterGraph(
      merged, policy_.placement.switch_capacity - policy_.placement.routing_reserve);
  replan_ = scheduler::PlaceClusters(net_->topology(), clusters,
                                     orch_->te_solution().paths, policy_.placement);
  ++totals_.replans;
}

void ElasticOrchestrator::Record(const char* action, NodeId sw,
                                 const std::string& booster) {
  if (recorder_ == nullptr) return;
  recorder_->trace().Event(net_->Now(), telemetry::Join("elastic", action, booster),
                           {{"sw", sw}});
}

void ElasticOrchestrator::CollectTelemetry(telemetry::Recorder& recorder) const {
  auto& m = recorder.metrics();
  m.GetCounter("elastic.epochs").Set(totals_.epochs);
  m.GetCounter("elastic.replans").Set(totals_.replans);
  m.GetCounter("elastic.scale_ups").Set(totals_.scale_ups);
  m.GetCounter("elastic.sheds").Set(totals_.sheds);
  m.GetCounter("elastic.teardowns").Set(totals_.teardowns);
  m.GetCounter("elastic.repurposes").Set(totals_.repurposes);
  m.GetCounter("elastic.install_rejects").Set(totals_.install_rejects);
  m.GetCounter("elastic.over_budget").Set(totals_.over_budget);
}

bool ElasticOrchestrator::RegionScaledUp(std::size_t rule_idx,
                                         std::uint32_t region) const {
  auto it = state_.find(rule_idx);
  if (it == state_.end()) return false;
  auto rit = it->second.find(region);
  return rit != it->second.end() && rit->second.active;
}

}  // namespace fastflex::control
