#include "telemetry/prof.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace fastflex::telemetry {

namespace {

// Same round-trip formatting as the exporter: deterministic "%.17g",
// non-finite -> null.
std::string NumToJson(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const char* ProfSiteName(ProfSite site) {
  switch (site) {
    case ProfSite::kEventDispatch: return "event_dispatch";
    case ProfSite::kPipelineWalk: return "pipeline_walk";
    case ProfSite::kHostStack: return "host_stack";
    case ProfSite::kModeProtocol: return "mode_protocol";
    case ProfSite::kFaultInject: return "fault_inject";
    case ProfSite::kExport: return "export";
    case ProfSite::kSiteCount: break;
  }
  return "unknown";
}

Profiler::Profiler() {
  std::fill(root_child_, root_child_ + kSiteCount, nullptr);
}

void Profiler::Enable(std::uint32_t stride) {
  if (stride == 0) stride = 1;
  std::uint32_t pow2 = 1;
  while (pow2 < stride) pow2 <<= 1;
  mask_ = pow2 - 1;
  gate_ = mask_;
  enabled_ = true;
  // Reserve the full arena first: node pointers must stay stable for the
  // lifetime of the profiler (the tree links by pointer).  Then pre-create
  // the top-level node of every site: the tree shape starts deterministic,
  // and the saturation fallback in ChildOf always has a valid root node to
  // attribute to.
  nodes_.reserve(kMaxNodes);
  for (std::size_t s = 0; s < kSiteCount; ++s) {
    (void)ChildOf(nullptr, static_cast<ProfSite>(s));
  }
}

Profiler::Node* Profiler::ChildOf(Node* parent, ProfSite site) {
  const auto idx = static_cast<std::size_t>(site);
  Node*& slot = parent != nullptr ? parent->child[idx] : root_child_[idx];
  if (slot != nullptr) return slot;
  if (nodes_.size() >= kMaxNodes) {
    // Tree saturated (possible only under pathological nesting cycles):
    // attribute to the site's root node rather than growing forever.
    return root_child_[idx];
  }

  nodes_.emplace_back();  // within reserved capacity: no reallocation
  Node& n = nodes_.back();
  n.site = site;
  n.parent = parent;
  std::fill(n.child, n.child + kSiteCount, nullptr);
  slot = &n;
  return &n;
}

bool Profiler::HasData() const {
  for (std::size_t s = 0; s < kSiteCount; ++s) {
    if (site_calls_[s] > 0) return true;
  }
  return !nodes_.empty() || occupancy_.count() > 0;
}

std::string Profiler::PathOf(std::size_t node_index) const {
  if (node_index >= nodes_.size()) return "";
  std::string path = ProfSiteName(nodes_[node_index].site);
  for (const Node* p = nodes_[node_index].parent; p != nullptr; p = p->parent) {
    path.insert(0, std::string(ProfSiteName(p->site)) + ".");
  }
  return path;
}

std::string Profiler::ToJsonSection(bool include_wall) const {
  std::string out = "{";
  out += "\"stride\":" + std::to_string(stride());

  // Exact per-site entry counts: every entry, sampled or not.  These are
  // the ground truth the est_ns figures are normalized against.
  out += ",\"sites\":[";
  bool first = true;
  for (std::size_t s = 0; s < kSiteCount; ++s) {
    if (!first) out += ",";
    first = false;
    out += "{\"site\":\"" + std::string(ProfSiteName(static_cast<ProfSite>(s))) +
           "\",\"calls\":" + std::to_string(site_calls_[s]) + "}";
  }
  out += "]";

  // Tree nodes in creation order (deterministic per seed).  Paths make the
  // document self-describing without the reader re-walking parent links.
  out += ",\"tree\":[";
  first = true;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (!first) out += ",";
    first = false;
    out += "{\"path\":\"" + PathOf(i) + "\"";
    out += ",\"parent\":" + std::to_string(IndexOf(n.parent));
    out += ",\"samples\":" + std::to_string(n.samples);
    if (include_wall) {
      out += ",\"sampled_ns\":" + std::to_string(n.sampled_ns);
      out += ",\"est_ns\":" + NumToJson(EstimateNs(n));
    }
    out += "}";
  }
  out += "]";

  // Queue occupancy at sampled dispatches: which dispatches sample is a
  // pure function of the dispatch counter, so this block is deterministic.
  out += ",\"queue_occupancy\":{\"samples\":" + std::to_string(occupancy_.count()) +
         ",\"mean\":" + NumToJson(occupancy_.mean()) +
         ",\"max\":" + NumToJson(occupancy_.max()) + "}";

  if (include_wall) {
    out += ",\"export_ns\":" + std::to_string(export_ns_);
  }
  out += "}";
  return out;
}

}  // namespace fastflex::telemetry
