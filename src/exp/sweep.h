// Multi-seed experiment sweeps.
//
// A sweep is a grid of independent (scenario, seed, config) cells.  Each
// cell is a pure function of its derived seed: it builds its own Network +
// EventQueue + Rng and returns a compact JSON artifact.  Because cells share
// nothing, the Runner may execute them on any number of worker threads and
// the aggregated report is bit-identical regardless — the report is ordered
// by cell index and contains no timing or thread-count fields.
//
// This is how the simulator uses more than one core: a single run executes
// on one thread (Network::RunUntil), and a sweep runs many cells at once.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "scenarios/fig3.h"
#include "util/types.h"

namespace fastflex::exp {

/// Derives the seed for cell `cell_index` of a sweep from its base seed.
/// SplitMix64 over `base ^ (golden_gamma * (index + 1))`: cells get
/// decorrelated streams even for adjacent indices or adjacent base seeds,
/// and the mapping is stable across platforms (pure 64-bit arithmetic).
std::uint64_t CellSeed(std::uint64_t base_seed, std::size_t cell_index);

/// One unit of sweep work.  `run` receives the cell's derived seed and
/// returns the cell artifact as a compact JSON object (it must not depend on
/// wall-clock time, thread identity, or any other cell).
struct SweepCell {
  std::string name;
  std::function<std::string(std::uint64_t seed)> run;
};

struct SweepSpec {
  std::string name;
  std::uint64_t base_seed = 1;
  std::vector<SweepCell> cells;
};

/// Outcome of one cell.  A throwing cell yields ok=false + error; the other
/// cells complete normally.
struct CellResult {
  std::size_t index = 0;
  std::string name;
  std::uint64_t seed = 0;
  bool ok = false;
  std::string error;
  std::string artifact_json;  // compact JSON object when ok
};

/// Aggregated sweep outcome, always cell-index ordered.
struct SweepReport {
  std::string sweep_name;
  std::uint64_t base_seed = 0;
  std::vector<CellResult> cells;

  /// Deterministic serialization (schema "fastflex.sweep.v1").  Contains no
  /// timing or thread-count fields: two runs of the same spec produce
  /// byte-identical output whatever the worker count — the property the
  /// sweep determinism test and the CI bench gate pin.
  std::string ToJson() const;

  /// Writes ToJson() to `path`; returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

  std::size_t ok_cells() const;
};

// ---- Fig3 grid helpers -----------------------------------------------------

/// Grid axes for a Fig3 rolling-LFA sweep: defenses x seed replicas.
struct Fig3GridOptions {
  std::vector<scenarios::DefenseKind> defenses = {
      scenarios::DefenseKind::kNone, scenarios::DefenseKind::kBaselineSdn,
      scenarios::DefenseKind::kFastFlex};
  int seeds_per_defense = 4;
  SimTime attack_at = 10 * kSecond;
  int attack_flows = 250;
  bool enable_int = true;
  /// Simulated length of each cell's run.  Each cell runs on one thread;
  /// the Runner's worker pool is where a sweep gets its parallelism.
  SimTime duration = 120 * kSecond;
};

const char* DefenseName(scenarios::DefenseKind kind);

/// Compact, deterministic JSON summary of a Fig3 run (no per-second series —
/// the scalar fingerprint is enough to pin replay identity and small enough
/// to commit as a CI baseline).
std::string Fig3SummaryJson(scenarios::DefenseKind defense,
                            const scenarios::Fig3Result& result);

/// Builds the defense x replica grid as a SweepSpec.  Cell order is
/// defense-major, replica-minor; cell names are "<defense>/r<replica>".
SweepSpec BuildFig3Sweep(const std::string& name, std::uint64_t base_seed,
                         const Fig3GridOptions& grid);

}  // namespace fastflex::exp
