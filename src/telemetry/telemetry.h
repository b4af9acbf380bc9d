// Umbrella header and the Recorder: one metrics registry plus one event
// tracer, attached to a run.  Counters stay in the component that does the
// work and are copied into the registry by a CollectTelemetry pass at the
// end of the run; ordered records (alarms, mode changes, fault and elastic
// decisions, queue spikes) are Tracer point events, the run's one ordered
// record stream.
//
// Instrumented components take a `Recorder*` where nullptr means disabled;
// the disabled path must cost exactly one branch per hook (the same
// discipline FF_LOG applies to logging) — hot layers additionally cache
// the metric references they update per packet so the enabled path does no
// name lookups either.
#pragma once

#include "telemetry/int_collector.h"
#include "telemetry/metrics.h"
#include "telemetry/prof.h"
#include "telemetry/trace.h"

namespace fastflex::telemetry {

class Recorder {
 public:
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  Tracer& trace() { return trace_; }
  const Tracer& trace() const { return trace_; }

  /// In-band telemetry journeys (fed by the IntSinkPpm).  Exported as the
  /// "int" section of the JSON artifact when it holds any data.
  IntCollector& int_collector() { return int_; }
  const IntCollector& int_collector() const { return int_; }

  /// Self-profiler (sampled hot-path timers, queue occupancy).  Off by
  /// default — call prof().Enable() BEFORE attaching the recorder to a
  /// network/pipeline (hook sites cache the enabled pointer at attach
  /// time).  Exported as the "prof" section, which replay-identity
  /// comparisons exclude because it carries wall clock.
  Profiler& prof() { return prof_; }
  const Profiler& prof() const { return prof_; }

 private:
  MetricsRegistry metrics_;
  Tracer trace_;
  IntCollector int_;
  Profiler prof_;
};

}  // namespace fastflex::telemetry
