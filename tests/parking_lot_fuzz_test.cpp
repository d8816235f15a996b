// Seeded fuzz of core::ParkingLot under concurrency: sender threads route
// envelopes (parking them while their destination is congested), a
// toggler thread flips congestion flags and flushes on every clear the
// way a machine's congestion callback does, and senders fire stray
// flushes too. However the interleaving falls, every envelope must be
// delivered exactly once and the stall counters must balance. Built
// into the tsan-labeled binary so ThreadSanitizer checks the lot's
// flag/lock protocol.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/parking_lot.hpp"
#include "util/rng.hpp"

namespace {

using namespace mdo;
using core::Envelope;
using core::ParkingLot;
using core::Pe;

void fuzz_lot(std::uint64_t seed) {
  constexpr Pe kPeers = 4;
  constexpr std::uint64_t kSenders = 3;
  constexpr std::uint64_t kPerSender = 10000;
  ParkingLot lot(kPeers);
  std::vector<std::atomic<std::uint32_t>> delivered(kSenders * kPerSender);
  // The machines' routing path: park toward a congested peer, else hand
  // the envelope on (here: count its delivery).
  auto route = [&](Envelope&& env) {
    if (lot.congested(env.dst_pe)) {
      lot.park(std::move(env));
      return;
    }
    delivered[env.seq].fetch_add(1, std::memory_order_relaxed);
  };
  lot.set_resend(route);
  // Start congested everywhere so the first sends are sure to park.
  for (Pe peer = 0; peer < kPeers; ++peer) lot.set_congested(peer, true);

  std::atomic<bool> senders_done{false};
  std::thread toggler([&] {
    SplitMix64 rng(seed ^ 0x5eedu);
    while (!senders_done.load(std::memory_order_acquire)) {
      const auto peer = static_cast<Pe>(rng.bounded(kPeers));
      const bool congested = rng.bounded(2) == 0;
      lot.set_congested(peer, congested);
      if (!congested) lot.flush(peer);
      if (rng.bounded(4) == 0) std::this_thread::yield();
    }
  });
  std::vector<std::thread> senders;
  for (std::uint64_t s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      SplitMix64 rng(seed * 31 + s);
      for (std::uint64_t i = 0; i < kPerSender; ++i) {
        Envelope env;
        env.src_pe = 0;
        env.dst_pe = static_cast<Pe>(rng.bounded(kPeers));
        env.priority = static_cast<core::Priority>(rng.bounded(4));
        env.seq = s * kPerSender + i;
        route(std::move(env));
        // A flush while the peer may still be congested (a confirmed
        // death resolves parked envelopes this way) just re-parks.
        if (rng.bounded(16) == 0) lot.flush(static_cast<Pe>(rng.bounded(kPeers)));
      }
    });
  }
  for (auto& t : senders) t.join();
  senders_done.store(true, std::memory_order_release);
  toggler.join();

  // The heal: every peer clears and drains.
  for (Pe peer = 0; peer < kPeers; ++peer) {
    lot.set_congested(peer, false);
    lot.flush(peer);
  }
  for (std::size_t id = 0; id < delivered.size(); ++id) {
    ASSERT_EQ(delivered[id].load(), 1u) << "seed " << seed << " id " << id;
  }
  EXPECT_EQ(lot.counts().held, 0u) << "seed " << seed;
  EXPECT_GT(lot.counts().parked, 0u) << "seed " << seed;
  EXPECT_EQ(lot.counts().parked, lot.counts().resumed) << "seed " << seed;
}

TEST(ParkingLotFuzz, ConcurrentParkClearFlushDeliversExactlyOnce) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) fuzz_lot(seed);
}

}  // namespace
