// Sim-time-stamped event tracing: point events and spans.
//
// A point event is a named instant with integer fields, e.g.
//   mode_change{switch=4, origin=2, epoch=7, bit=1, on=1} @ t
// A span is a named interval opened at one sim time and closed at a later
// one (mode-change latency, switch repurposing).  Field values are 64-bit
// integers only, so two replays of the same seed serialize identically.
//
// Dotted names group events into families that readers select by prefix:
//   fault.<kind>{node, link, aux}   injected faults and what the survival
//                                   machinery did about them (a field is
//                                   present only where it applies)
//   elastic.<action>.<booster>{sw}  the elastic control loop's decisions
//   link.queue_spike{link, queued, capacity}
//                                   a link's transmit queue first crossing
//                                   half its capacity (bytes); the latch
//                                   re-arms once it drains under a quarter
//
// Recording is append-only vectors; the tracer never touches the event
// queue or any simulation state, so attaching one cannot perturb a run.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.h"

namespace fastflex::telemetry {

struct TraceField {
  std::string key;
  std::int64_t value = 0;
};

struct TraceEvent {
  SimTime t = 0;
  std::string name;
  std::vector<TraceField> fields;

  /// The value of field `key`, or `fallback` when the event has none.
  std::int64_t Field(std::string_view key, std::int64_t fallback = -1) const;
};

struct TraceSpan {
  std::uint64_t id = 0;
  std::string name;
  SimTime begin = 0;
  SimTime end = -1;  // -1 while open
  std::vector<TraceField> fields;

  bool open() const { return end < begin; }
  SimTime duration() const { return open() ? 0 : end - begin; }
};

class Tracer {
 public:
  using Fields = std::initializer_list<TraceField>;

  void Event(SimTime t, std::string name, Fields fields = {});

  /// Opens a span at `t`; returns an id for CloseSpan.
  std::uint64_t OpenSpan(SimTime t, std::string name, Fields fields = {});

  /// Closes an open span, optionally attaching result fields.  Unknown ids
  /// and double closes are ignored.
  void CloseSpan(std::uint64_t id, SimTime t, Fields extra = {});

  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<TraceSpan>& spans() const { return spans_; }

  /// Number of point events with the given name.
  std::size_t CountOf(std::string_view name) const;

  /// Point events with the given name, in record (= sim time) order.
  std::vector<const TraceEvent*> EventsNamed(std::string_view name) const;

  /// Point events whose name starts with `prefix`, in record order: one
  /// family of records, e.g. "fault." or "elastic.scale_up.".
  std::vector<const TraceEvent*> EventsWithPrefix(std::string_view prefix) const;

 private:
  std::vector<TraceEvent> events_;
  std::vector<TraceSpan> spans_;
  std::uint64_t next_span_id_ = 1;
};

}  // namespace fastflex::telemetry
