// Discrete-event engine tests: ordering, determinism, re-entrancy.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "util/rng.h"

namespace fastflex::sim {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.Now(), 30);
}

TEST(EventQueueTest, SimultaneousEventsRunInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.ScheduleAt(5, [&order, i] { order.push_back(i); });
  q.RunAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, RunUntilStopsAtBoundaryInclusive) {
  EventQueue q;
  int ran = 0;
  q.ScheduleAt(10, [&] { ++ran; });
  q.ScheduleAt(20, [&] { ++ran; });
  q.ScheduleAt(21, [&] { ++ran; });
  q.RunUntil(20);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(q.Now(), 20);
  EXPECT_EQ(q.Pending(), 1u);
}

TEST(EventQueueTest, TimeAdvancesToUntilEvenWhenIdle) {
  EventQueue q;
  q.RunUntil(1000);
  EXPECT_EQ(q.Now(), 1000);
}

TEST(EventQueueTest, PastSchedulingClampsToNow) {
  EventQueue q;
  q.ScheduleAt(100, [] {});
  q.RunUntil(100);
  int ran = 0;
  q.ScheduleAt(50, [&] { ++ran; });  // in the past; clamps to now=100
  q.RunUntil(100);
  EXPECT_EQ(ran, 1);
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  EventQueue q;
  std::vector<SimTime> fired;
  std::function<void()> chain = [&] {
    fired.push_back(q.Now());
    if (fired.size() < 5) q.ScheduleAfter(10, chain);
  };
  q.ScheduleAt(0, chain);
  q.RunUntil(1000);
  EXPECT_EQ(fired, (std::vector<SimTime>{0, 10, 20, 30, 40}));
}

TEST(EventQueueTest, ScheduleAfterIsRelativeToNow) {
  EventQueue q;
  SimTime at = -1;
  q.ScheduleAt(100, [&] { q.ScheduleAfter(5, [&] { at = q.Now(); }); });
  q.RunAll();
  EXPECT_EQ(at, 105);
}

TEST(EventQueueTest, SameTimeFifoSurvivesInterleavedPops) {
  // The (t, seq) tie-break makes the pop order a pure function of the
  // schedule calls: same-time events stay FIFO even when pops rearrange
  // the heap between the pushes.
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(5, [&] { order.push_back(0); });
  q.ScheduleAt(1, [] {});  // popped first, perturbing heap internals
  q.ScheduleAt(5, [&] { order.push_back(1); });
  q.RunUntil(1);
  q.ScheduleAt(5, [&] { order.push_back(2); });
  q.ScheduleAt(5, [&] { order.push_back(3); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueTest, ReserveDoesNotDisturbPendingEvents) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(2, [&] { order.push_back(2); });
  q.ScheduleAt(1, [&] { order.push_back(1); });
  q.Reserve(4096);
  q.ScheduleAt(3, [&] { order.push_back(3); });
  EXPECT_EQ(q.Pending(), 3u);
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, ProcessedCountsEvents) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.ScheduleAt(i, [] {});
  q.RunAll();
  EXPECT_EQ(q.processed(), 7u);
}

// Weak-pointer-guarded timers rely on a fired callback's captures dying
// with it, before the next event runs, not lingering in queue storage until
// the slot is reused.  Checked on each dispatch path.
TEST(EventQueueTest, FiredCallbackIsDestroyedBeforeTheNextEventRuns) {
  enum class Path { kRunUntil, kDispatchOne, kRunAll };
  for (Path path : {Path::kRunUntil, Path::kDispatchOne, Path::kRunAll}) {
    EventQueue q;
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    bool expired_at_second = false;
    q.ScheduleAt(1, [t = std::move(token)] { EXPECT_EQ(*t, 7); });
    q.ScheduleAt(2, [&] { expired_at_second = watch.expired(); });
    switch (path) {
      case Path::kRunUntil:
        q.RunUntil(1);
        EXPECT_TRUE(watch.expired());
        break;
      case Path::kDispatchOne:
        ASSERT_TRUE(q.DispatchOne(1));
        EXPECT_TRUE(watch.expired());
        break;
      case Path::kRunAll:
        break;
    }
    q.RunAll();
    EXPECT_TRUE(expired_at_second);
  }
}

// A reserved key fixes an event's place in the (t, seq) order at reserve
// time, whenever (and from wherever) the event is admitted.
TEST(EventQueueTest, ReservedKeyPopsWhereItWasReserved) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(10, [&] { order.push_back(0); });
  const std::uint64_t held = q.ReserveSeq();
  q.ScheduleAt(10, [&] { order.push_back(2); });
  // Admitted from inside an earlier event, as a timer moving itself does.
  q.ScheduleAt(5, [&] { q.ScheduleAt(10, held, [&] { order.push_back(1); }); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  // A reservation never admitted leaves no trace in the pop order.
  q.ReserveSeq();
  q.ScheduleAt(20, [&] { order.push_back(3); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueTest, ReachedFollowsTheQueuePosition) {
  EventQueue q;
  const std::uint64_t at0 = q.ReserveSeq();
  EXPECT_FALSE(q.Reached(0, at0));  // before any run, nothing is reached
  const std::uint64_t early = q.ReserveSeq();
  std::uint64_t late = 0;
  bool early_seen = false, late_seen = true;
  q.ScheduleAt(7, [&] {
    early_seen = q.Reached(7, early);  // reserved before the firing key
    late_seen = q.Reached(7, late);    // reserved after it
  });
  late = q.ReserveSeq();
  ASSERT_TRUE(q.DispatchOne(7));
  EXPECT_TRUE(early_seen);
  EXPECT_FALSE(late_seen);
  EXPECT_TRUE(q.Reached(0, at0));
  EXPECT_FALSE(q.Reached(7, late));  // after DispatchOne: the key it fired
  // After RunUntil(until): until with every seq reserved so far.
  const std::uint64_t at_until = q.ReserveSeq();
  q.RunUntil(9);
  EXPECT_TRUE(q.Reached(9, at_until));
  EXPECT_TRUE(q.Reached(7, late));
  EXPECT_FALSE(q.Reached(9, q.ReserveSeq()));
  EXPECT_FALSE(q.Reached(10, 0));
}

// ---- Differential test against an ordered-map reference model ------------
//
// Every event carries an id; firing logs (id, Now()).  Ids divisible by 4
// spawn a child from inside their callback, so admission interleaves with
// dispatch and the slot array can grow mid-callback; ids divisible by 3
// capture more than the inline budget (boxed callbacks).  Reserved keys are
// held by the test loop, admitted later under their key or never, and
// Reached is queried on held, pending and fired keys.

struct Fired {
  int id;
  SimTime t;
};

constexpr int kChildOffset = 1'000'000;
bool Spawns(int id) { return id % 4 == 0 && id < 2 * kChildOffset; }
int ChildOf(int id) { return id + kChildOffset; }
SimTime ChildDelay(int id) { return id % 7; }

struct Harness {
  EventQueue q;
  std::vector<Fired> log;

  EventQueue::Callback Make(int id) {
    if (id % 3 == 0) {
      std::array<std::int64_t, 8> pad{};
      pad[7] = id;
      return [this, pad] { Fire(static_cast<int>(pad[7])); };
    }
    return [this, id] { Fire(id); };
  }

  void Fire(int id) {
    log.push_back({id, q.Now()});
    if (Spawns(id)) q.ScheduleAt(q.Now() + ChildDelay(id), Make(ChildOf(id)));
  }
};

using Key = std::pair<SimTime, std::uint64_t>;  // (t, seq)

// The queue's contract restated over a std::map keyed by (t, seq).
struct Model {
  std::map<Key, int> pending;  // (t, seq) -> id
  SimTime now = 0;
  std::uint64_t next_seq = 0;
  Key position{0, 0};      // every key below it is reached
  std::vector<Key> fired;  // in pop order
  std::uint64_t processed = 0;
  std::size_t peak = 0;
  std::vector<Fired> log;

  SimTime Front() const {
    return pending.empty() ? EventQueue::kNoEvent : pending.begin()->first.first;
  }

  bool Reached(Key k) const { return k < position; }

  void Admit(SimTime t, int id) { AdmitReserved({std::max(t, now), next_seq++}, id); }

  void AdmitReserved(Key k, int id) {
    pending.emplace(k, id);
    peak = std::max(peak, pending.size());
  }

  void Fire() {
    const auto [key, id] = *pending.begin();
    pending.erase(pending.begin());
    now = key.first;
    position = {key.first, key.second + 1};
    fired.push_back(key);
    ++processed;
    log.push_back({id, now});
    if (Spawns(id)) Admit(now + ChildDelay(id), ChildOf(id));
  }

  void RunUntil(SimTime until) {
    while (Front() <= until) Fire();
    if (now <= until) {
      now = until;
      position = {until, next_seq};
    }
  }
};

// A reserved key the test loop has not admitted yet.
struct Held {
  Key key;
  int id;
};

void ExpectSameState(const Harness& h, const Model& m, std::size_t& checked) {
  ASSERT_EQ(h.q.Now(), m.now);
  ASSERT_EQ(h.q.Pending(), m.pending.size());
  ASSERT_EQ(h.q.Empty(), m.pending.empty());
  ASSERT_EQ(h.q.PeekTime(), m.Front());
  ASSERT_EQ(h.q.processed(), m.processed);
  ASSERT_EQ(h.q.peak_pending(), m.peak);
  // The earliest pending key is not reached (so none is); the last fired is.
  if (!m.pending.empty()) {
    const Key& front = m.pending.begin()->first;
    ASSERT_FALSE(h.q.Reached(front.first, front.second));
  }
  if (!m.fired.empty()) {
    ASSERT_TRUE(h.q.Reached(m.fired.back().first, m.fired.back().second));
  }
  ASSERT_EQ(h.log.size(), m.log.size());
  for (; checked < m.log.size(); ++checked) {
    ASSERT_EQ(h.log[checked].id, m.log[checked].id) << "pop " << checked;
    ASSERT_EQ(h.log[checked].t, m.log[checked].t) << "pop " << checked;
  }
}

TEST(EventQueueTest, MatchesOrderedMapModelUnderMixedOperations) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Harness h;
    Model m;
    std::size_t checked = 0;
    int next_id = 1;
    std::vector<Held> held;
    auto reserve = [&](SimTime t) {
      const std::uint64_t seq = h.q.ReserveSeq();
      EXPECT_EQ(seq, m.next_seq++);
      return Key{t, seq};
    };
    auto pick = [&](auto& v) {
      return static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(v.size()) - 1));
    };
    for (int step = 0; step < 3000; ++step) {
      const std::int64_t op = rng.UniformInt(0, 99);
      if (op < 42) {  // may land in the past: clamps to Now()
        const SimTime t = m.now + rng.UniformInt(-5, 40);
        const int id = next_id++;
        m.Admit(t, id);
        h.q.ScheduleAt(t, h.Make(id));
      } else if (op < 50) {  // reserve a key, admitted later or never
        held.push_back({reserve(m.now + rng.UniformInt(0, 40)), next_id++});
      } else if (op < 58) {  // admit a held key, unless it was reached first
        if (held.empty()) continue;
        const std::size_t i = pick(held);
        const Held r = held[i];
        held[i] = held.back();
        held.pop_back();
        ASSERT_EQ(h.q.Reached(r.key.first, r.key.second), m.Reached(r.key));
        if (m.Reached(r.key)) continue;  // never admitted
        m.AdmitReserved(r.key, r.id);
        h.q.ScheduleAt(r.key.first, r.key.second, h.Make(r.id));
      } else if (op < 64) {  // query held and fired keys
        if (!held.empty()) {
          const Key k = held[pick(held)].key;
          ASSERT_EQ(h.q.Reached(k.first, k.second), m.Reached(k));
        }
        if (!m.fired.empty()) {
          const Key k = m.fired[pick(m.fired)];
          ASSERT_TRUE(h.q.Reached(k.first, k.second));
        }
      } else if (op < 84) {
        const SimTime cap = m.now + rng.UniformInt(-2, 20);
        const bool runs = m.Front() <= cap;
        if (runs) m.Fire();
        ASSERT_EQ(h.q.DispatchOne(cap), runs);
      } else {
        const SimTime until = m.now + rng.UniformInt(-2, 30);
        // A key at exactly `until` reserved before the call is reached when
        // it returns; one reserved after it is not.
        const bool advances = until >= m.now;
        const Key before = advances ? reserve(until) : Key{};
        m.RunUntil(until);
        h.q.RunUntil(until);
        if (advances) {
          ASSERT_TRUE(h.q.Reached(before.first, before.second));
          const Key after = reserve(until);
          ASSERT_FALSE(h.q.Reached(after.first, after.second));
          held.push_back({after, next_id++});
        }
      }
      ExpectSameState(h, m, checked);
      if (HasFatalFailure()) break;
    }
    while (!m.pending.empty()) m.Fire();
    h.q.RunAll();
    ExpectSameState(h, m, checked);
  }
}

}  // namespace
}  // namespace fastflex::sim
