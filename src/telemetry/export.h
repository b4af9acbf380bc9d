// JSON serialization of a Recorder.
//
// The JSON artifact ("fastflex.telemetry.v1") is the machine-readable
// output of every bench: metric families keyed by name in lexicographic
// order, then the trace (events and spans) in record order.  All numbers
// are printed with round-trip precision, so two replays of the same seed
// produce byte-identical files — the replay regression test depends on
// this.
#pragma once

#include <string>

#include "telemetry/telemetry.h"

namespace fastflex::telemetry {

struct ExportOptions {
  /// Emit the "prof" section (when the profiler is enabled).  Replay
  /// comparisons serialize with this off: prof carries wall-clock
  /// nanoseconds, the one part of the artifact that is not a pure function
  /// of the seed.  Every other section must stay byte-identical whether
  /// profiling is on or off — the exporter edge tests pin this.
  bool include_prof = true;
};

/// Serializes the whole recorder (metrics + trace) as one JSON document.
std::string ToJson(const Recorder& rec);
std::string ToJson(const Recorder& rec, const ExportOptions& opts);

}  // namespace fastflex::telemetry
