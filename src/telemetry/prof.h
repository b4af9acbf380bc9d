// Continuous self-profiler: where does a simulation run spend its wall
// clock?
//
// Two kinds of data, with very different determinism properties:
//
//  - COUNTS (site entry counts, event-queue occupancy samples, which
//    entries get sampled): pure functions of the simulated run.  Same
//    seed, same counts, on any machine.
//  - WALL CLOCK (sampled nanoseconds per tree node): machine- and load-
//    dependent by nature.  These never enter the MetricsRegistry, the
//    trace, or any replay-pinned telemetry section — they live only in the
//    "prof" section, which the replay tests exclude and the bench gates
//    treat as timing-only (the same isolation discipline the sweep schema
//    applies to its "timing" subtree).
//
// Sampling model — subtree sampling.  Every site entry increments an exact
// flat per-site counter; that is the whole hot path for most entries.  A
// top-level entry (no profiled scope open) additionally checks its site
// counter against the stride: every stride-th entry becomes a SAMPLE —
// it resolves its attribution-tree node, publishes itself as the current
// position, and reads the clock on entry and exit.  While a sample is
// open, every nested scope is unconditionally sampled too, so each sample
// captures its complete subtree: the hierarchy inside a sample is exact,
// and a parent's sampled time always includes its children's.  Because a
// scope publishes its position only while sampled, the un-sampled path
// costs one counter increment and one predicted branch — cheap enough
// to leave on the per-packet pipeline walk (the bench gate pins
// profiler-on overhead at <= 1.05x there).
//
// Estimator: each sample stands for the entries it was drawn from.  A
// tree node's samples all ride samples of its top-level ancestor (the
// root), so est_ns = sampled_ns * min(stride, calls(root site) / root
// samples), and stride when the root has no samples.  The first entry of
// a site always samples, so plain sampled_ns * stride would multiply a
// site entered fewer than stride times (the 2-call export) by stride; the
// calls/samples ratio gives it its true weight, and a busy site's ratio
// sits near stride, where the cap holds it.  The stride is a power of two
// — workloads with matching power-of-two periodicity could alias against
// it; no such pattern exists in the event loop, but it is the standard
// caveat for strided samplers (DESIGN.md §10).  The sampling decision
// depends only on deterministic counters, so WHICH entries get sampled —
// and therefore the tree shape and every count — is a pure function of
// the run; only the nanoseconds are not.
//
// The profiler never schedules events and never draws random numbers:
// enabling it MUST NOT perturb the simulation (the bench_prof determinism
// flag pins non-prof sections byte-identical with profiling on vs off).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.h"
#include "util/types.h"

namespace fastflex::telemetry {

/// Instrumented hot-path sites.  A fixed enum (not strings) so the scope
/// fast path is an array index, and so the exporter can emit stable names.
enum class ProfSite : std::uint8_t {
  kEventDispatch = 0,  // event-queue pop -> callback return
  kPipelineWalk,       // dataplane pipeline walk (per packet at a switch)
  kHostStack,          // host endpoint dispatch (TCP/UDP/handshake stacks)
  kModeProtocol,       // mode-change probe handling in the agent
  kFaultInject,        // fault injector transitions
  kExport,             // telemetry serialization (ToJson)
  kSiteCount
};

const char* ProfSiteName(ProfSite site);

class ProfScope;

class Profiler {
 public:
  static constexpr std::size_t kSiteCount = static_cast<std::size_t>(ProfSite::kSiteCount);
  static constexpr std::uint32_t kDefaultStride = 256;
  /// Attribution-tree saturation guard: a pathological nesting cycle
  /// cannot grow the tree without bound — past this, entries attribute to
  /// the site's root node (pre-created by Enable) instead.  Node storage
  /// is reserved up front to this cap, so node pointers are stable — the
  /// sampled path links nodes by pointer, not index.
  static constexpr std::size_t kMaxNodes = 1024;

  /// One node of the attribution tree: a site reached through a distinct
  /// chain of SAMPLED ancestors.  A site that is usually entered below an
  /// un-sampled ancestor shows up both as a top-level node (its own-stride
  /// samples) and as a child node (entries inside the ancestor's samples);
  /// the report merges by site for the flat view.
  struct Node {
    ProfSite site = ProfSite::kEventDispatch;
    Node* parent = nullptr;        // nullptr = top level
    std::uint64_t samples = 0;     // deterministic
    std::uint64_t sampled_ns = 0;  // WALL CLOCK — prof section only
    Node* child[kSiteCount];       // nullptr = not yet visited
  };

  Profiler();

  /// Turns sampling on.  `stride` is rounded up to a power of two (the
  /// sampling test is a mask).  Call BEFORE attaching the recorder to the
  /// network/pipelines: hook sites cache the enabled pointer at attach.
  void Enable(std::uint32_t stride = kDefaultStride);
  bool enabled() const { return enabled_; }
  std::uint32_t stride() const { return mask_ + 1; }

  /// The pointer hook sites cache: this profiler if enabled, else nullptr
  /// (so a disabled profiler costs hook sites exactly one branch).
  Profiler* enabled_self() { return enabled_ ? this : nullptr; }

  // ---- Hot-path API (call only through a cached enabled_self()) ----

  /// Event-queue occupancy observed at a sampled dispatch (deterministic:
  /// which dispatches sample is a pure function of the dispatch counter).
  void QueueOccupancy(std::size_t pending) {
    occupancy_.Add(static_cast<double>(pending));
  }

  /// Exporter self-measurement: ToJson's wall time for everything but the
  /// prof section itself (recorded out-of-tree to avoid self-reference).
  void RecordExportNs(std::uint64_t ns) { export_ns_ += ns; }

  // ---- Introspection / export ----

  const std::vector<Node>& nodes() const { return nodes_; }
  const Summary& occupancy() const { return occupancy_; }

  /// Exact entries recorded at `site` (every entry, sampled or not).
  std::uint64_t CallsAt(ProfSite site) const {
    return site_calls_[static_cast<std::size_t>(site)];
  }

  /// Index of a node within nodes() (for export: pointers don't serialize).
  std::ptrdiff_t IndexOf(const Node* n) const {
    return n == nullptr ? -1 : n - nodes_.data();
  }

  /// Estimated total inclusive nanoseconds of a node: its sampled time
  /// times min(stride, calls/samples of its top-level ancestor) (see the
  /// estimator note in the header comment).
  double EstimateNs(const Node& n) const {
    const Node* root = &n;
    while (root->parent != nullptr) root = root->parent;
    double weight = static_cast<double>(stride());
    if (root->samples > 0) {
      weight = std::min(weight, static_cast<double>(CallsAt(root->site)) /
                                    static_cast<double>(root->samples));
    }
    return static_cast<double>(n.sampled_ns) * weight;
  }

  bool HasData() const;

  /// The "prof" JSON section.  With `include_wall` false every
  /// machine-dependent field (sampled_ns, est_ns, export_ns) is omitted,
  /// leaving a deterministic document — what the determinism tests compare.
  std::string ToJsonSection(bool include_wall = true) const;

  /// Dotted path of a node ("event_dispatch.pipeline_walk").
  std::string PathOf(std::size_t node_index) const;

 private:
  friend class ProfScope;
  using Clock = std::chrono::steady_clock;

  /// Resolves (creating on first visit) `site` as a child of `parent`;
  /// nullptr parent means top level.  Out of line: runs only on sampled
  /// entries.
  Node* ChildOf(Node* parent, ProfSite site);

  bool enabled_ = false;
  std::uint32_t mask_ = kDefaultStride - 1;
  // The fast path's one sampling test: an entry samples when its site
  // count ANDed with gate_ is 0.  gate_ is mask_ at top level and 0 while
  // a sample is open (cur_ != nullptr), so the stride and "inside a
  // sample" cost a single branch.
  std::uint32_t gate_ = kDefaultStride - 1;
  Node* cur_ = nullptr;  // innermost open SAMPLE's node; nullptr = not sampling
  std::uint64_t site_calls_[kSiteCount] = {};  // exact entries per site
  std::vector<Node> nodes_;       // reserved to kMaxNodes: pointers stable
  Node* root_child_[kSiteCount];  // top-level nodes (no sampled ancestor)
  Summary occupancy_;
  std::uint64_t export_ns_ = 0;
};

/// RAII scope for a profiler site.  Safe on a null profiler: the common
/// disabled path is one branch in the constructor and one in the
/// destructor.  The enabled un-sampled path — the one that runs per packet
/// — is one exact counter increment and one predicted branch; all tree
/// and clock work happens only on sampled entries (1/stride at top level,
/// or riding an open sample's subtree).
class ProfScope {
 public:
  ProfScope(Profiler* prof, ProfSite site) {
    if (prof != nullptr) {
      const auto idx = static_cast<std::size_t>(site);
      if ((prof->site_calls_[idx]++ & prof->gate_) != 0) [[likely]] return;  // un-sampled
      // Sampled: own stride fired at top level, or inside an open sample's
      // subtree.  Full node accounting with wall clock, off the fast path.
      Open(prof, site);
    }
  }
  ~ProfScope() {
    if (prof_ != nullptr) [[unlikely]] Close();
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  void Open(Profiler* prof, ProfSite site) {
    prof_ = prof;
    parent_ = prof->cur_;
    node_ = prof->ChildOf(parent_, site);
    prof->cur_ = node_;
    prof->gate_ = 0;  // every scope nested in this sample samples too
    t0_ns_ = std::chrono::steady_clock::now().time_since_epoch().count();
  }
  void Close() {
    const std::int64_t now_ns =
        std::chrono::steady_clock::now().time_since_epoch().count();
    prof_->cur_ = parent_;
    if (parent_ == nullptr) prof_->gate_ = prof_->mask_;  // back at top level
    ++node_->samples;
    node_->sampled_ns += static_cast<std::uint64_t>(now_ns - t0_ns_);
  }

  // All members are meaningful only when sampled; prof_ == nullptr is the
  // "nothing to close" flag covering both the disabled and un-sampled
  // paths.
  Profiler* prof_ = nullptr;
  Profiler::Node* node_ = nullptr;
  Profiler::Node* parent_ = nullptr;
  std::int64_t t0_ns_ = 0;
};

}  // namespace fastflex::telemetry
