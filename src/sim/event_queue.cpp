#include "sim/event_queue.h"

#include <cassert>
#include <utility>

namespace fastflex::sim {

std::uint32_t EventQueue::Park(Callback&& fn) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  slots_[slot] = std::move(fn);
  return slot;
}

// Both sifts carry the moving key in a local and shift the keys it passes
// into the hole, writing it once where it settles.
void EventQueue::SiftUp(std::size_t i) {
  const Key k = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!Before(k, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
}

void EventQueue::SiftDown(std::size_t i) {
  const std::size_t n = heap_.size();
  const Key k = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) ++child;
    if (!Before(heap_[child], k)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = k;
}

EventQueue::Event EventQueue::PopTop() {
  const Key top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
  free_.push_back(top.slot);
  return Event{top.t, top.seq, std::move(slots_[top.slot])};
}

void EventQueue::Admit(SimTime t, std::uint64_t seq, Callback&& fn) {
  heap_.push_back(Key{t, seq, Park(std::move(fn))});
  SiftUp(heap_.size() - 1);
  if (heap_.size() > peak_pending_) peak_pending_ = heap_.size();
}

void EventQueue::ScheduleAt(SimTime t, Callback fn) {
  if (t < now_) t = now_;
  Admit(t, next_seq_++, std::move(fn));
}

void EventQueue::ScheduleAt(SimTime t, std::uint64_t seq, Callback fn) {
  assert(seq < next_seq_ && !Reached(t, seq));
  Admit(t, seq, std::move(fn));
}

// Inline: this is the body of RunUntil's loop, the simulator's hottest.
inline void EventQueue::DispatchTop() {
  Event ev = PopTop();  // pop before firing: the callback may schedule
  now_ = ev.t;
  reached_seq_ = ev.seq + 1;
  ++processed_;
  if (prof_ != nullptr) [[unlikely]] {
    if ((processed_ & 63u) == 0) prof_->QueueOccupancy(heap_.size());
    telemetry::ProfScope scope(prof_, telemetry::ProfSite::kEventDispatch);
    ev.fn();
  } else {
    ev.fn();
  }
}

void EventQueue::RunUntil(SimTime until) {
  while (!heap_.empty() && heap_.front().t <= until) DispatchTop();
  if (now_ <= until) {
    now_ = until;
    reached_seq_ = next_seq_;
  }
}

bool EventQueue::DispatchOne(SimTime cap) {
  if (heap_.empty() || heap_.front().t > cap) return false;
  DispatchTop();
  return true;
}

void EventQueue::RunAll() {
  while (!heap_.empty()) DispatchTop();
}

}  // namespace fastflex::sim
