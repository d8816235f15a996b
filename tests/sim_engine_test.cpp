// DES engine: ordering, tie-breaking, clock semantics, determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace {

using mdo::sim::Engine;
using mdo::sim::TimeNs;

TEST(Engine, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(Engine, TiesBreakFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) e.schedule_at(5, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, CallbacksMayScheduleMore) {
  Engine e;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) e.schedule_after(10, chain);
  };
  e.schedule_at(0, chain);
  e.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(e.now(), 40);
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine e;
  TimeNs seen = -1;
  e.schedule_at(100, [&] { e.schedule_after(50, [&] { seen = e.now(); }); });
  e.run();
  EXPECT_EQ(seen, 150);
}

TEST(Engine, RefusesPastEvents) {
  Engine e;
  e.schedule_at(10, [] {});
  e.run();
  EXPECT_DEATH(e.schedule_at(5, [] {}), "past");
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
  e.schedule_at(1, [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, StopHaltsRun) {
  Engine e;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    e.schedule_at(i, [&, i] {
      ++count;
      if (i == 3) e.stop();
    });
  }
  e.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(e.pending(), 7u);
  e.clear_stop();
  e.run();
  EXPECT_EQ(count, 10);
}

TEST(Engine, RunUntilAdvancesClockPastLastEvent) {
  Engine e;
  int fired = 0;
  e.schedule_at(10, [&] { ++fired; });
  e.schedule_at(100, [&] { ++fired; });
  e.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 50);
  e.run_until(200);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), 200);
}

TEST(Engine, ResetClearsEverything) {
  Engine e;
  e.schedule_at(10, [] {});
  e.schedule_at(20, [] {});
  e.step();
  e.reset();
  EXPECT_EQ(e.now(), 0);
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.events_processed(), 0u);
}

TEST(Engine, RunningCallbackSurvivesReuseOfItsSlot) {
  // A callback's storage slot is released before it runs, so an event it
  // schedules may take that slot; the running callback's captures must
  // stay intact while it finishes.
  Engine e;
  std::vector<std::string> log;
  const std::string tag(64, 'a');  // large enough to live on the heap
  e.schedule_at(1, [&e, &log, tag] {
    e.schedule_at(1, [&log] { log.push_back("second"); });
    log.push_back(tag);
  });
  e.run();
  EXPECT_EQ(log, (std::vector<std::string>{std::string(64, 'a'), "second"}));
}

TEST(Engine, PopsInTimeThenInsertionOrderUnderInterleaving) {
  // Events scheduled between steps, with many equal times, come out
  // sorted by (time, insertion sequence).
  Engine e;
  std::vector<std::pair<TimeNs, int>> expected;
  std::vector<std::pair<TimeNs, int>> fired;
  std::uint64_t state = 7;
  int id = 0;
  for (int round = 0; round < 50; ++round) {
    for (int k = 0; k < 5; ++k) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const TimeNs t = e.now() + static_cast<TimeNs>((state >> 33) % 8);
      const int mine = id++;
      expected.emplace_back(t, mine);
      e.schedule_at(t, [&fired, &e, mine] { fired.emplace_back(e.now(), mine); });
    }
    e.step();
    e.step();
  }
  e.run();
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ(fired, expected);
}

TEST(Engine, DeterministicInterleaving) {
  auto run_once = [] {
    Engine e;
    std::vector<int> order;
    // Two "processes" ping at equal times; FIFO sequencing must be stable.
    std::function<void(int, int)> proc = [&](int id, int depth) {
      order.push_back(id);
      if (depth < 20) e.schedule_after(7, [&proc, id, depth] { proc(id, depth + 1); });
    };
    e.schedule_at(0, [&] { proc(1, 0); });
    e.schedule_at(0, [&] { proc(2, 0); });
    e.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
