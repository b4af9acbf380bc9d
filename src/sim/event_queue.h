// Discrete-event engine.
//
// An explicit binary min-heap of 24-byte (time, insertion sequence, slot)
// keys.  Each pending event's callback is parked in a slot array recycled
// through a LIFO free list, so a sift moves keys only: a callback is
// written into its slot once at admission and moved out once when it
// fires, never relocated while the heap reorders.
//
// Ordering contract (replay identity depends on it): events pop in
// ascending time, and events scheduled for the *same* simulated time pop in
// insertion order.  The (t, seq) key is a total order — no two events ever
// compare equal — so the pop sequence is a pure function of the schedule
// and reserve calls and never depends on heap internals (sift order,
// capacity, std-library version).  The parallel experiment runner's
// "1 thread vs N threads bit-identical" guarantee reduces to this property,
// because every worker replays its cells on a private queue.
//
// Reserved keys: ReserveSeq() takes an insertion seq without admitting an
// event, fixing a place in the (t, seq) order when something happens.  The
// caller admits an event under that key later (ScheduleAt(t, seq, fn)), or
// never, and asks Reached(t, seq) whether the key's turn has come.  Links
// settle their departures this way, with no event per departure, and a TCP
// sender keeps one RTO timer that moves to its latest armed key.
//
// Callbacks are SmallCallback, not std::function: hot-path closures (packet
// delivery, timers) stay within the inline capture budget, so scheduling an
// event performs no heap allocation.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/small_callback.h"
#include "telemetry/prof.h"
#include "util/types.h"

namespace fastflex::sim {

class EventQueue {
 public:
  using Callback = SmallCallback;

  /// Sentinel returned by PeekTime() on an empty queue.
  static constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();

  SimTime Now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (clamped to Now()).
  void ScheduleAt(SimTime t, Callback fn);

  /// Schedules `fn` after a delay relative to Now().
  void ScheduleAfter(SimTime delay, Callback fn) { ScheduleAt(now_ + delay, std::move(fn)); }

  /// Takes the next insertion seq without admitting an event.  An event
  /// admitted later under (t, seq) pops exactly where one scheduled at t
  /// now would have.
  std::uint64_t ReserveSeq() { return next_seq_++; }

  /// Admits `fn` under a reserved key.  The key must not be reached yet
  /// (asserted): an event cannot fire before the one now firing.
  void ScheduleAt(SimTime t, std::uint64_t seq, Callback fn);

  /// Whether an event admitted under (t, seq) would already have fired.
  /// The queue's position is the key now firing during a dispatch, the key
  /// last fired after DispatchOne or RunAll, and (until, every seq reserved
  /// so far) after RunUntil(until) returns; before any run, nothing at
  /// t = 0 is reached.
  bool Reached(SimTime t, std::uint64_t seq) const {
    return t != now_ ? t < now_ : seq < reached_seq_;
  }

  /// Pre-sizes the pending-event storage (keys, slots and free list, e.g.
  /// before injecting a large traffic schedule) so admission never
  /// reallocates mid-run.
  void Reserve(std::size_t events) {
    heap_.reserve(events);
    slots_.reserve(events);
    free_.reserve(events);
  }

  /// Runs events until the queue is empty or the next event is after `until`.
  /// Time advances to `until` even if the queue drains earlier.
  void RunUntil(SimTime until);

  /// Runs everything (use only in tests with finite event chains).
  void RunAll();

  /// Time of the earliest pending event, or kNoEvent when empty.
  SimTime PeekTime() const { return heap_.empty() ? kNoEvent : heap_.front().t; }

  /// Pops and runs the earliest event if its time is <= `cap`; returns
  /// whether an event ran.  One step of RunUntil's loop (same Now()
  /// advance, processed count and profiler sampling), for callers that
  /// drive the queue event by event.
  bool DispatchOne(SimTime cap);

  bool Empty() const { return heap_.empty(); }
  std::size_t Pending() const { return heap_.size(); }
  std::uint64_t processed() const { return processed_; }

  /// Largest pending-set size ever reached.  Always tracked (one compare
  /// per admission) — the queue's high-water mark is how a run's memory
  /// footprint is sized, so it is worth having even without a recorder.
  std::size_t peak_pending() const { return peak_pending_; }

  /// Attaches (nullptr: detaches) a profiler: each dispatched event runs
  /// under a kEventDispatch scope, and every 64th dispatch records the
  /// pending-set size as a queue-occupancy sample.  The sampling decision
  /// keys off the processed-event counter, so which dispatches sample —
  /// and therefore the occupancy data — is a pure function of the run.
  void set_profiler(telemetry::Profiler* prof) { prof_ = prof; }

 private:
  /// A heap entry: the event's (t, seq) order key and the slot holding its
  /// callback.
  struct Key {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Key) == 24);

  /// An event taken off the queue to fire.
  struct Event {
    SimTime t;
    std::uint64_t seq;
    Callback fn;
  };

  /// Strict total order: earlier time first, earlier insertion first.
  static bool Before(const Key& a, const Key& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  /// Parks `fn` in a free slot (or a new one) and returns its index.
  std::uint32_t Park(Callback&& fn);
  void SiftUp(std::size_t i);
  void SiftDown(std::size_t i);
  /// Removes the earliest event and moves its callback out of its slot,
  /// which returns to the free list: the callback may schedule (and so
  /// grow the slot array), and its captures die with the returned Event,
  /// before the next event fires.
  Event PopTop();
  /// Pops the earliest event and runs it: the one dispatch path behind
  /// RunUntil, DispatchOne and RunAll.
  void DispatchTop();
  void Admit(SimTime t, std::uint64_t seq, Callback&& fn);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  // Keys at now_ with a seq below this have been reached (see Reached).
  std::uint64_t reached_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t peak_pending_ = 0;
  telemetry::Profiler* prof_ = nullptr;
  std::vector<Key> heap_;            // binary min-heap under Before()
  std::vector<Callback> slots_;      // indexed by Key::slot
  std::vector<std::uint32_t> free_;  // LIFO: the hottest slot is reused first
};

}  // namespace fastflex::sim
