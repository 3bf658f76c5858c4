// Unit tests for the discrete-event queue.
#include "simnet/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace accelring::simnet {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.schedule(30, [&] { order.push_back(3); });
  eq.schedule(10, [&] { order.push_back(1); });
  eq.schedule(20, [&] { order.push_back(2); });
  eq.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eq.now(), 30);
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eq.schedule(100, [&order, i] { order.push_back(i); });
  }
  eq.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PastTimesClampToNow) {
  EventQueue eq;
  eq.schedule(100, [] {});
  eq.run_all();
  Nanos fired_at = -1;
  eq.schedule(50, [&] { fired_at = eq.now(); });  // in the past
  eq.run_all();
  EXPECT_EQ(fired_at, 100);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue eq;
  bool fired = false;
  const EventId id = eq.schedule(10, [&] { fired = true; });
  eq.cancel(id);
  eq.run_all();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue eq;
  int count = 0;
  const EventId id = eq.schedule(10, [&] { ++count; });
  eq.run_all();
  eq.cancel(id);
  eq.run_all();
  EXPECT_EQ(count, 1);
}

TEST(EventQueue, CallbacksCanScheduleMoreEvents) {
  EventQueue eq;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) eq.schedule_after(10, chain);
  };
  eq.schedule(0, chain);
  eq.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(eq.now(), 40);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue eq;
  int fired = 0;
  for (Nanos t = 10; t <= 100; t += 10) {
    eq.schedule(t, [&] { ++fired; });
  }
  eq.run_until(50);
  EXPECT_EQ(fired, 5);
  EXPECT_FALSE(eq.empty());
  eq.run_until(1000);
  EXPECT_EQ(fired, 10);
}

TEST(EventQueue, CancelledHeadDoesNotBlockRunUntil) {
  EventQueue eq;
  bool fired = false;
  const EventId id = eq.schedule(10, [] {});
  eq.schedule(20, [&] { fired = true; });
  eq.cancel(id);
  eq.run_until(25);
  EXPECT_TRUE(fired);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime) {
  EventQueue eq;
  Nanos fired_at = 0;
  eq.schedule(100, [&] {
    eq.schedule_after(50, [&] { fired_at = eq.now(); });
  });
  eq.run_all();
  EXPECT_EQ(fired_at, 150);
}

TEST(EventQueue, ExecutedCounterCountsOnlyLiveEvents) {
  EventQueue eq;
  const EventId id = eq.schedule(5, [] {});
  eq.schedule(6, [] {});
  eq.cancel(id);
  eq.run_all();
  EXPECT_EQ(eq.events_executed(), 1u);
}

TEST(EventQueue, CancelZeroIsNoop) {
  EventQueue eq;
  int fired = 0;
  eq.schedule(10, [&] { ++fired; });
  eq.cancel(0);
  eq.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, StaleIdIsNoopAfterSlotReuse) {
  EventQueue eq;
  int fired = 0;
  // A cancelled event's slot is recycled for the next schedule().
  const EventId cancelled = eq.schedule(10, [&] { fired += 100; });
  eq.cancel(cancelled);
  const EventId reused = eq.schedule(10, [&] { ++fired; });
  EXPECT_NE(reused, cancelled);
  eq.cancel(cancelled);  // stale: must not cancel the slot's new event
  // A fired event's slot is recycled too.
  eq.run_all();
  const EventId again = eq.schedule(20, [&] { ++fired; });
  eq.cancel(reused);
  eq.run_all();
  EXPECT_NE(again, reused);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eq.events_executed(), 2u);
}

TEST(EventQueue, CallbackCancelsItselfAndAnother) {
  EventQueue eq;
  int self_runs = 0;
  bool other_fired = false;
  bool later_fired = false;
  EventId self = 0;
  const EventId other = eq.schedule(20, [&] { other_fired = true; });
  self = eq.schedule(10, [&] {
    ++self_runs;
    eq.cancel(self);   // already running: a no-op
    eq.cancel(other);  // pending: never runs
    eq.schedule_after(5, [&] { later_fired = true; });
  });
  eq.run_all();
  EXPECT_EQ(self_runs, 1);
  EXPECT_FALSE(other_fired);
  EXPECT_TRUE(later_fired);
  EXPECT_EQ(eq.events_executed(), 2u);
}

TEST(EventQueue, TenThousandEqualTimeEventsFireInScheduleOrder) {
  EventQueue eq;
  std::vector<int> order;
  constexpr int kEvents = 10'000;
  order.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    eq.schedule(500, [&order, i] { order.push_back(i); });
  }
  eq.run_all();
  ASSERT_EQ(order.size(), static_cast<size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) ASSERT_EQ(order[i], i);
}

/// Counts destructions of the one owning instance: moved-from shells (the
/// temporary a lambda is built in, a relocated slot) do not count.
struct Probe {
  int* runs;
  int* destroyed;
  bool owner = true;
  Probe(int* r, int* d) : runs(r), destroyed(d) {}
  Probe(Probe&& o) noexcept
      : runs(o.runs),
        destroyed(o.destroyed),
        owner(std::exchange(o.owner, false)) {}
  Probe(const Probe&) = delete;
  ~Probe() {
    if (owner) ++*destroyed;
  }
};

TEST(EventQueue, OversizedCallableRunsAndIsDestroyedOnce) {
  int runs = 0;
  int destroyed = 0;
  auto big = [probe = Probe(&runs, &destroyed),
              pad = std::array<char, 4 * Callback::kInlineBytes>{}] {
    ++*probe.runs;
    EXPECT_EQ(pad[0], 0);
  };
  static_assert(sizeof(big) > Callback::kInlineBytes);
  {
    EventQueue eq;
    eq.schedule(10, std::move(big));
    EXPECT_EQ(destroyed, 0);
    eq.run_all();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(destroyed, 1);
  }
  EXPECT_EQ(destroyed, 1);

  // Cancelled: destroyed at cancel, never run.
  runs = destroyed = 0;
  {
    EventQueue eq;
    const EventId id = eq.schedule(
        10, [probe = Probe(&runs, &destroyed),
             pad = std::array<char, 4 * Callback::kInlineBytes>{}] {
          ++*probe.runs;
        });
    eq.cancel(id);
    EXPECT_EQ(destroyed, 1);
    eq.run_all();
  }
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(destroyed, 1);

  // Still pending when the queue goes away: destroyed with it.
  runs = destroyed = 0;
  {
    EventQueue eq;
    eq.schedule(10, [probe = Probe(&runs, &destroyed),
                     pad = std::array<char, 4 * Callback::kInlineBytes>{}] {
      ++*probe.runs;
    });
  }
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(destroyed, 1);
}

TEST(EventQueue, InlineCallableIsDestroyedOnceThroughMoves) {
  int runs = 0;
  int destroyed = 0;
  {
    Callback a = [probe = Probe(&runs, &destroyed)] { ++*probe.runs; };
    Callback b = std::move(a);
    EXPECT_FALSE(a);
    Callback c;
    c = std::move(b);
    c();
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(destroyed, 1);
}

// Random schedule/cancel/step against an ordered map keyed on (when,
// schedule order): the queue must fire exactly the model's events in the
// model's order, at the model's times.
TEST(EventQueue, MatchesOrderedModelUnderRandomScheduleAndCancel) {
  util::Rng rng(42);
  EventQueue eq;
  std::map<std::pair<Nanos, int>, EventId> model;  // (when, tag) -> id
  std::vector<std::pair<Nanos, int>> fired;
  std::vector<std::pair<Nanos, int>> expected;
  int next_tag = 0;
  for (int round = 0; round < 20'000; ++round) {
    const uint64_t action = rng.below(10);
    if (action < 5) {
      const Nanos when = eq.now() + static_cast<Nanos>(rng.below(50));
      const int tag = next_tag++;
      const EventId id = eq.schedule(when, [&fired, &eq, tag] {
        fired.emplace_back(eq.now(), tag);
      });
      model.emplace(std::make_pair(when, tag), id);
    } else if (action < 7 && !model.empty()) {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.below(model.size())));
      eq.cancel(it->second);
      model.erase(it);
    } else if (!model.empty()) {
      expected.push_back(model.begin()->first);
      model.erase(model.begin());
      ASSERT_TRUE(eq.step());
    }
  }
  for (const auto& [key, id] : model) expected.push_back(key);
  eq.run_all();
  EXPECT_EQ(fired, expected);
}

}  // namespace
}  // namespace accelring::simnet
