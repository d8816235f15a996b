// The wall-clock backends' one PE queue (core::Mailbox): priority order,
// the consumer's sleep and wake-up, the idle flag ProcessMachine's
// quiescence wave reads, and a seeded multi-producer burst fuzz. Part of
// test_thread_stress (label tsan), so the tsan preset checks the
// mailbox's lock protocol under ThreadSanitizer.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/wall_clock.hpp"

namespace {

using mdo::core::Mailbox;
using namespace std::chrono_literals;

/// Poll `pred` until it holds; false once `limit` has passed.
bool eventually(const std::function<bool()>& pred,
                std::chrono::milliseconds limit = 10s) {
  const auto until = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(100us);
  }
  return true;
}

TEST(Mailbox, MostUrgentFirstFifoAmongEqualPriorities) {
  Mailbox<int> box;
  box.push(5, 50);
  box.push(1, 10);
  box.push(5, 51);
  box.push(0, 0);
  box.push(1, 11);
  box.push(5, 52);
  EXPECT_EQ(box.size(), 6u);
  std::vector<int> out;
  while (auto v = box.try_pop()) out.push_back(*v);
  EXPECT_EQ(out, (std::vector<int>{0, 10, 11, 50, 51, 52}));
  EXPECT_EQ(box.pushed(), 6u);
  EXPECT_EQ(box.popped(), 6u);
  EXPECT_TRUE(box.empty());
  EXPECT_FALSE(box.try_pop().has_value());
}

TEST(Mailbox, WaitReturnsAtOnceWhenNotEmptyOrStopped) {
  Mailbox<int> box;
  box.wait([] { return true; });  // stopped: no sleep on an empty mailbox
  box.wait_for(1h, [] { return true; });
  box.push(0, 1);
  box.wait([] { return false; });  // a value is waiting
  box.wait_for(1h, [] { return false; });
  EXPECT_FALSE(box.idle());
  EXPECT_EQ(box.try_pop(), 1);
  box.wait_for(1ms, [] { return false; });  // times out, empty
  EXPECT_FALSE(box.idle());
}

TEST(Mailbox, WaitReturnsOnPush) {
  Mailbox<int> box;
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    box.wait([] { return false; });
    woke.store(true);
  });
  ASSERT_TRUE(eventually([&] { return box.idle(); }));
  EXPECT_FALSE(woke.load());
  box.push(0, 7);
  consumer.join();  // only the push can end a wait whose stop() is false
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(box.try_pop(), 7);
}

TEST(Mailbox, WaitReturnsOnWakeAllAfterStopIsSet) {
  Mailbox<int> box;
  std::atomic<bool> stop{false};
  std::thread consumer([&] { box.wait([&] { return stop.load(); }); });
  ASSERT_TRUE(eventually([&] { return box.idle(); }));
  stop.store(true);
  box.wake_all();
  consumer.join();
  EXPECT_FALSE(box.idle());
  EXPECT_TRUE(box.empty());

  // The flag is set outside the mailbox's lock, racing the consumer on
  // its way to sleep; wake_all() must never be lost either way.
  for (int round = 0; round < 200; ++round) {
    std::atomic<bool> flag{false};
    std::thread sleeper([&] { box.wait([&] { return flag.load(); }); });
    if (round % 2 == 0) std::this_thread::yield();
    flag.store(true);
    box.wake_all();
    sleeper.join();
  }
}

TEST(Mailbox, IdleOnlyWhileConsumerSleepsOnEmptyMailbox) {
  Mailbox<int> box;
  EXPECT_FALSE(box.idle());  // empty, but nobody waits
  std::thread consumer([&] { box.wait([] { return false; }); });
  ASSERT_TRUE(eventually([&] { return box.idle(); }));
  box.push(0, 1);
  // Nobody pops here: a pending value ends idleness at once, whether or
  // not the consumer has woken yet.
  EXPECT_FALSE(box.idle());
  consumer.join();
  EXPECT_FALSE(box.idle());
  EXPECT_EQ(box.try_pop(), 1);
  EXPECT_FALSE(box.idle());  // empty again, but nobody waits
}

struct Item {
  std::uint32_t producer = 0;
  std::uint64_t seq = 0;  ///< per producer, in push order
};

/// P producers push `per_producer` items each in seeded random bursts
/// with priorities drawn from {0, 1, 2}; one consumer pops or sleeps.
/// Every item must pop exactly once, and FIFO must hold among each
/// producer's items of one priority. With `consumer_stops_early` the
/// consumer is told to stop as soon as the producers finish, and the
/// test drains the remainder single-threaded: nothing may be stranded.
void fuzz_mailbox(std::uint64_t seed, std::uint32_t producers,
                  std::uint64_t per_producer, bool consumer_stops_early) {
  constexpr int kPriorities = 3;
  Mailbox<Item> box;
  std::atomic<bool> stop{false};
  // last[p][priority]: one past the last seq popped from that producer
  // at that priority.
  std::vector<std::array<std::uint64_t, kPriorities>> last(producers);
  std::vector<std::uint64_t> popped_from(producers, 0);
  std::vector<std::vector<std::int32_t>> priority_of(producers);
  for (std::uint32_t p = 0; p < producers; ++p) {
    std::mt19937_64 rng(seed * 31 + p);
    for (std::uint64_t i = 0; i < per_producer; ++i) {
      priority_of[p].push_back(static_cast<std::int32_t>(rng() % kPriorities));
    }
  }
  const auto take = [&](const Item& item) {
    ASSERT_LT(item.producer, producers);
    const std::int32_t prio = priority_of[item.producer][item.seq];
    auto& next = last[item.producer][static_cast<std::size_t>(prio)];
    ASSERT_GE(item.seq, next) << "producer " << item.producer << " priority "
                              << prio << ": duplicate or out of FIFO order";
    next = item.seq + 1;
    ++popped_from[item.producer];
  };

  std::thread consumer([&] {
    const auto stopping = [&] { return stop.load(); };
    while (!stop.load()) {
      if (auto item = box.try_pop()) {
        take(*item);
      } else {
        box.wait(stopping);
      }
    }
  });
  std::vector<std::thread> workers;
  for (std::uint32_t p = 0; p < producers; ++p) {
    workers.emplace_back([&, p] {
      std::mt19937_64 rng(seed ^ (0x9e3779b97f4a7c15ull * (p + 1)));
      std::uint64_t sent = 0;
      while (sent < per_producer) {
        for (std::uint64_t burst = 1 + rng() % 48;
             burst > 0 && sent < per_producer; --burst, ++sent) {
          box.push(priority_of[p][sent], Item{p, sent});
        }
        if ((rng() & 7u) == 0) std::this_thread::yield();
      }
    });
  }
  for (auto& w : workers) w.join();
  const std::uint64_t total =
      static_cast<std::uint64_t>(producers) * per_producer;
  if (!consumer_stops_early) {
    EXPECT_TRUE(eventually([&] { return box.popped() == total; }, 60s));
  }
  stop.store(true);
  box.wake_all();
  consumer.join();
  while (auto item = box.try_pop()) take(*item);

  EXPECT_EQ(box.pushed(), total);
  EXPECT_EQ(box.popped(), total);
  EXPECT_TRUE(box.empty());
  for (std::uint32_t p = 0; p < producers; ++p) {
    EXPECT_EQ(popped_from[p], per_producer) << "producer " << p;
  }
}

TEST(Mailbox, SeededBurstsKeepFifoPerProducerAcrossSeeds) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    fuzz_mailbox(seed, /*producers=*/4, /*per_producer=*/20000,
                 /*consumer_stops_early=*/false);
  }
}

TEST(Mailbox, DrainOnShutdownStrandsNothing) {
  for (std::uint64_t seed : {3ull, 11ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    fuzz_mailbox(seed, /*producers=*/3, /*per_producer=*/10000,
                 /*consumer_stops_early=*/true);
  }
}

TEST(Mailbox, SingleProducerStreamArrivesInOrder) {
  Mailbox<std::uint64_t> box;
  constexpr std::uint64_t kTotal = 200'000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kTotal; ++i) box.push(0, std::uint64_t{i});
  });
  std::uint64_t expect = 0;
  while (expect < kTotal) {
    if (auto v = box.try_pop()) {
      ASSERT_EQ(*v, expect);
      ++expect;
    } else {
      box.wait([] { return false; });
    }
  }
  producer.join();
  EXPECT_EQ(box.pushed(), kTotal);
  EXPECT_EQ(box.popped(), kTotal);
}

}  // namespace
