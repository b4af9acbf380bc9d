#include "telemetry/trace.h"

#include <algorithm>

namespace fastflex::telemetry {

std::int64_t TraceEvent::Field(std::string_view key, std::int64_t fallback) const {
  for (const auto& f : fields) {
    if (f.key == key) return f.value;
  }
  return fallback;
}

void Tracer::Event(SimTime t, std::string name, Fields fields) {
  events_.push_back(TraceEvent{t, std::move(name), {fields.begin(), fields.end()}});
}

std::uint64_t Tracer::OpenSpan(SimTime t, std::string name, Fields fields) {
  const std::uint64_t id = next_span_id_++;
  spans_.push_back(TraceSpan{id, std::move(name), t, -1, {fields.begin(), fields.end()}});
  return id;
}

void Tracer::CloseSpan(std::uint64_t id, SimTime t, Fields extra) {
  // Spans close in roughly LIFO order; search from the back.
  auto it = std::find_if(spans_.rbegin(), spans_.rend(),
                         [id](const TraceSpan& s) { return s.id == id; });
  if (it == spans_.rend() || !it->open()) return;
  it->end = std::max(t, it->begin);
  it->fields.insert(it->fields.end(), extra.begin(), extra.end());
}

std::size_t Tracer::CountOf(std::string_view name) const {
  return static_cast<std::size_t>(std::count_if(
      events_.begin(), events_.end(),
      [name](const TraceEvent& e) { return e.name == name; }));
}

std::vector<const TraceEvent*> Tracer::EventsNamed(std::string_view name) const {
  std::vector<const TraceEvent*> out;
  for (const auto& e : events_) {
    if (e.name == name) out.push_back(&e);
  }
  return out;
}

std::vector<const TraceEvent*> Tracer::EventsWithPrefix(std::string_view prefix) const {
  std::vector<const TraceEvent*> out;
  for (const auto& e : events_) {
    if (e.name.starts_with(prefix)) out.push_back(&e);
  }
  return out;
}

}  // namespace fastflex::telemetry
