// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace hp2p::sim {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(SimTime::millis(3).as_micros(), 3000);
  EXPECT_DOUBLE_EQ(SimTime::micros(1500).as_millis(), 1.5);
  EXPECT_DOUBLE_EQ(SimTime::seconds(2.5).as_seconds(), 2.5);
}

TEST(SimTime, Arithmetic) {
  EXPECT_EQ(SimTime::millis(1) + SimTime::millis(2), SimTime::millis(3));
  EXPECT_EQ(SimTime::millis(5) - SimTime::millis(2), SimTime::millis(3));
  SimTime t = SimTime::millis(1);
  t += SimTime::millis(4);
  EXPECT_EQ(t, SimTime::millis(5));
}

TEST(SimTime, Ordering) {
  EXPECT_LT(SimTime::millis(1), SimTime::millis(2));
  EXPECT_LT(SimTime::millis(999), SimTime::never());
}

TEST(Simulator, StartsAtZeroAndIdle) {
  Simulator s;
  EXPECT_EQ(s.now(), SimTime{});
  EXPECT_TRUE(s.idle());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(SimTime::millis(30), [&] { order.push_back(3); });
  s.schedule_at(SimTime::millis(10), [&] { order.push_back(1); });
  s.schedule_at(SimTime::millis(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), SimTime::millis(30));
}

TEST(Simulator, TiesBreakByScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(SimTime::millis(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ReservedSeqBreaksTiesAtReservationTime) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(SimTime::millis(5), [&order] { order.push_back(0); });
  const std::uint64_t seq = s.reserve_seq();
  s.schedule_at(SimTime::millis(5), [&order] { order.push_back(2); });
  // Scheduled last, but sorted where it was reserved: between 0 and 2.
  s.schedule_reserved(SimTime::millis(5), seq,
                      [&order] { order.push_back(1); });
  // An unused reservation leaves no event behind.
  (void)s.reserve_seq();
  EXPECT_EQ(s.pending_events(), 3u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(s.stats().events_executed, 3u);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator s;
  SimTime fired{};
  s.schedule_at(SimTime::millis(10), [&] {
    s.schedule_after(SimTime::millis(5), [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, SimTime::millis(15));
}

TEST(Simulator, PastSchedulesClampToNow) {
  Simulator s;
  SimTime fired = SimTime::never();
  s.schedule_at(SimTime::millis(10), [&] {
    s.schedule_at(SimTime::millis(1), [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, SimTime::millis(10));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool ran = false;
  const TimerId id = s.schedule_at(SimTime::millis(5), [&] { ran = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.stats().events_cancelled, 1u);
}

TEST(Simulator, CancelTwiceFails) {
  Simulator s;
  const TimerId id = s.schedule_at(SimTime::millis(5), [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
}

TEST(Simulator, CancelNullHandleFails) {
  Simulator s;
  EXPECT_FALSE(s.cancel(TimerId{}));
}

TEST(Simulator, CancelAfterFireFails) {
  Simulator s;
  const TimerId id = s.schedule_at(SimTime::millis(5), [] {});
  s.run();
  EXPECT_FALSE(s.cancel(id));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  int fired = 0;
  s.schedule_at(SimTime::millis(10), [&] { ++fired; });
  s.schedule_at(SimTime::millis(20), [&] { ++fired; });
  s.schedule_at(SimTime::millis(30), [&] { ++fired; });
  s.run_until(SimTime::millis(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), SimTime::millis(20));
  s.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockWhenQueueEmpty) {
  Simulator s;
  s.run_until(SimTime::millis(100));
  EXPECT_EQ(s.now(), SimTime::millis(100));
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) s.schedule_after(SimTime::millis(1), chain);
  };
  s.schedule_after(SimTime::millis(1), chain);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), SimTime::millis(100));
}

TEST(Simulator, StatsCountScheduledAndExecuted) {
  Simulator s;
  for (int i = 0; i < 5; ++i) s.schedule_after(SimTime::millis(i), [] {});
  s.run();
  EXPECT_EQ(s.stats().events_scheduled, 5u);
  EXPECT_EQ(s.stats().events_executed, 5u);
}

TEST(Simulator, PendingEventsTracksLiveCount) {
  Simulator s;
  const TimerId a = s.schedule_after(SimTime::millis(1), [] {});
  s.schedule_after(SimTime::millis(2), [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, ManyTimersStressOrdering) {
  // Property: with many interleaved schedules/cancels, execution times are
  // monotone non-decreasing.
  Simulator s;
  std::vector<std::int64_t> times;
  std::vector<TimerId> ids;
  for (int i = 0; i < 1000; ++i) {
    const auto when = SimTime::micros((i * 7919) % 5000);
    ids.push_back(
        s.schedule_at(when, [&times, &s] { times.push_back(s.now().as_micros()); }));
  }
  for (size_t i = 0; i < ids.size(); i += 3) s.cancel(ids[i]);
  s.run();
  for (size_t i = 1; i < times.size(); ++i) EXPECT_LE(times[i - 1], times[i]);
  EXPECT_EQ(times.size(), 1000u - (1000u + 2) / 3);
}

TEST(SimTime, ExpiredBoundaryIsInclusive) {
  // The one expiry convention everywhere: expired iff deadline <= now.
  const SimTime deadline = SimTime::millis(5);
  EXPECT_FALSE(expired(deadline, SimTime::millis(4)));
  EXPECT_TRUE(expired(deadline, deadline));
  EXPECT_TRUE(expired(deadline, SimTime::millis(6)));
}

TEST(Simulator, TraceHookSeesScheduleFireCancel) {
  Simulator s;
  std::vector<TraceEvent> events;
  s.set_trace([&](const TraceEvent& ev) { events.push_back(ev); });
  s.schedule_at(SimTime::millis(1), [] {});
  const TimerId gone = s.schedule_at(SimTime::millis(2), [] {});
  ASSERT_TRUE(s.cancel(gone));
  s.run();
  ASSERT_EQ(events.size(), 4u);  // two schedules, one cancel, one fire
  EXPECT_EQ(events[0].kind, TraceEvent::Kind::kSchedule);
  EXPECT_EQ(events[1].kind, TraceEvent::Kind::kSchedule);
  EXPECT_EQ(events[2].kind, TraceEvent::Kind::kCancel);
  EXPECT_EQ(events[2].seq, events[1].seq);
  EXPECT_EQ(events[2].when, SimTime::millis(2));
  EXPECT_EQ(events[3].kind, TraceEvent::Kind::kFire);
  EXPECT_EQ(events[3].seq, events[0].seq);
  EXPECT_EQ(events[3].when, SimTime::millis(1));
}

TEST(Simulator, CorpseSkipAccountingIsConsistent) {
  Simulator s;
  std::vector<TimerId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(s.schedule_at(SimTime::millis(i + 1), [] {}));
  }
  for (size_t i = 0; i < ids.size(); i += 2) s.cancel(ids[i]);
  EXPECT_EQ(s.pending_events(), 3u);
  s.run_until(SimTime::millis(10));
  EXPECT_EQ(s.stats().events_scheduled, 6u);
  EXPECT_EQ(s.stats().events_cancelled, 3u);
  EXPECT_EQ(s.stats().events_executed, 3u);
  EXPECT_EQ(s.stats().corpses_skipped, 3u);
  EXPECT_EQ(s.now(), SimTime::millis(10));
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, StepSkipsCorpsesLikeRunUntil) {
  Simulator s;
  const TimerId a = s.schedule_at(SimTime::millis(1), [] {});
  s.schedule_at(SimTime::millis(2), [] {});
  s.cancel(a);
  EXPECT_TRUE(s.step());  // fires the live event, discarding the corpse
  EXPECT_EQ(s.now(), SimTime::millis(2));
  EXPECT_EQ(s.stats().corpses_skipped, 1u);
  EXPECT_FALSE(s.step());
}

}  // namespace
}  // namespace hp2p::sim
