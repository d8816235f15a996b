// ThreadMachine delivery stress under the pooled-buffer hot path
// (`ctest -L tsan`). Every cross-PE send packs its envelope into a
// scratch-arena buffer on the sending thread, ships it through the
// fabric's network thread, and returns the storage to the
// *receiving* thread's arena; PayloadBuf reps likewise recycle into
// whichever thread releases the last reference. This test hammers those
// cross-thread hand-offs from many PEs at once so the tsan preset
// (cmake --preset tsan) can prove the freelists are race-free. It also
// runs in the regular build as a plain correctness stress. The same
// suite snapshots a lossy, heartbeating machine's metrics from the test
// thread, which must not race the devices the snapshot reads, and kills
// a PE while another floods it, which its worker must drain.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "core/array.hpp"
#include "core/mapping.hpp"
#include "core/runtime.hpp"
#include "core/thread_machine.hpp"
#include "grid/scenario.hpp"
#include "net/heartbeat.hpp"
#include "net/reliable.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace mdo;
using core::Chare;
using core::Index;
using core::Runtime;
using core::ThreadMachine;

std::unique_ptr<ThreadMachine> make_machine(std::size_t pes) {
  net::GridLatencyModel::Config cfg;
  cfg.local = {sim::microseconds(1), 4000.0};
  cfg.intra = {sim::microseconds(5), 1000.0};
  cfg.inter = {sim::microseconds(20), 500.0};
  return std::make_unique<ThreadMachine>(net::Topology::two_cluster(pes),
                                         cfg);
}

struct Hammer : Chare {
  std::atomic<std::int64_t> hits{0};
  std::atomic<std::int64_t> payload_sum{0};

  /// Forward a payload around the ring `hops` more times. Every hop
  /// crosses PEs (elements are round-robin mapped), so every hop is a
  /// pack -> fabric -> unpack cycle through the pooled buffers.
  void relay(std::vector<std::int32_t> data, int hops) {
    hits.fetch_add(1, std::memory_order_relaxed);
    payload_sum.fetch_add(
        std::accumulate(data.begin(), data.end(), std::int64_t{0}),
        std::memory_order_relaxed);
    if (hops > 0) {
      Index next((index().x + 1) % 16);
      runtime().proxy<Hammer>(array_id()).send<&Hammer::relay>(
          next, std::move(data), hops - 1);
    }
  }

  void pup(Pup& p) override { Chare::pup(p); }
};

TEST(ThreadStress, ConcurrentRelaysThroughPooledBuffers) {
  constexpr int kChains = 16;
  constexpr int kHops = 40;
  constexpr std::size_t kPayloadInts = 256;

  Runtime rt(make_machine(8));
  auto proxy = rt.create_array<Hammer>(
      "hammer", core::indices_1d(16), core::round_robin_map(8),
      [](const Index&) { return std::make_unique<Hammer>(); });

  // Seed one relay chain per element start point; all 8 PE threads and
  // the dispatcher thread churn buffers concurrently.
  std::vector<std::int32_t> payload(kPayloadInts);
  std::iota(payload.begin(), payload.end(), 1);
  const std::int64_t per_msg_sum =
      std::accumulate(payload.begin(), payload.end(), std::int64_t{0});
  for (int c = 0; c < kChains; ++c) {
    proxy.send<&Hammer::relay>(Index(c % 16), payload, kHops);
  }
  rt.run();

  std::int64_t hits = 0, sum = 0;
  for (int i = 0; i < 16; ++i) {
    hits += proxy.local(Index(i))->hits.load();
    sum += proxy.local(Index(i))->payload_sum.load();
  }
  EXPECT_EQ(hits, static_cast<std::int64_t>(kChains) * (kHops + 1));
  EXPECT_EQ(sum, per_msg_sum * kChains * (kHops + 1));
}

TEST(ThreadStress, MetricSnapshotsOffTheFabricThreadDoNotRaceDevices) {
  // The device metric sources read state that sends and fabric timers
  // write on other threads: heartbeat counters (emit_beats), and the
  // reliable device's flow maps behind unacked_frames() and
  // buffered_packets(). A snapshot from the test thread reads them under
  // the fabric lock. 100 snapshots over ~200 ms, while relays cross a
  // lossy 1 ms WAN and the detector beats every 2 ms.
  grid::Scenario s = grid::Scenario::artificial(4, sim::milliseconds(1.0))
                         .with_loss(0.02)
                         .with_crashes();
  s.heartbeat.period = sim::milliseconds(2.0);
  // Sanitizers deschedule threads for long stretches: no verdicts here.
  s.heartbeat.timeout = sim::milliseconds(150.0);
  s.heartbeat.confirm_window = sim::seconds(30.0);
  s.reliable.give_up_budget = sim::seconds(30.0);
  core::MachineOptions cfg;
  cfg.emulate_charge = false;
  Runtime rt(grid::make_machine(s, grid::Backend::kThread, cfg));
  core::Machine& m = rt.machine();
  ASSERT_NE(m.reliability().heartbeat, nullptr);
  m.reliability().heartbeat->watch(sim::seconds(30.0));
  auto proxy = rt.create_array<Hammer>(
      "hammer", core::indices_1d(16), core::round_robin_map(4),
      [](const Index&) { return std::make_unique<Hammer>(); });
  constexpr int kChains = 8;
  constexpr int kHops = 100;
  const std::vector<std::int32_t> payload(64, 1);
  for (int c = 0; c < kChains; ++c) {
    proxy.send<&Hammer::relay>(Index(c), payload, kHops);
  }

  std::uint64_t beats = 0;
  std::uint64_t data_sent = 0;
  for (int i = 0; i < 100; ++i) {
    const obs::Snapshot snap = m.metrics().snapshot();
    beats = snap.counter("net.heartbeat.beats_sent");
    data_sent = snap.counter("net.reliable.data_sent");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  rt.run();

  EXPECT_GT(beats, 0u);
  EXPECT_GT(data_sent, 0u);
  std::int64_t hits = 0;
  for (int i = 0; i < 16; ++i) hits += proxy.local(Index(i))->hits.load();
  EXPECT_EQ(hits, static_cast<std::int64_t>(kChains) * (kHops + 1));
  EXPECT_EQ(m.reliability().reliable->counters().flows_abandoned, 0u);
  EXPECT_EQ(m.pes_killed(), 0u);
}

struct Flood : Chare {
  std::atomic<std::int64_t> absorbed{0};

  /// Element 0: post `burst` messages to element 1, pause, and re-post
  /// itself until `rounds` runs out, so the flood lasts a while.
  void flood(int rounds, int burst) {
    auto proxy = runtime().proxy<Flood>(array_id());
    for (int i = 0; i < burst; ++i) proxy.send<&Flood::absorb>(Index(1));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (rounds > 1) proxy.send<&Flood::flood>(index(), rounds - 1, burst);
  }

  /// Element 1: slower than the flood, so its PE's mailbox backs up.
  void absorb() {
    absorbed.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  void pup(Pup& p) override { Chare::pup(p); }
};

TEST(ThreadStress, PeKilledMidPhaseWhileFloodedDrainsItsMailbox) {
  // PE 1 dies with a backlog in its mailbox while PE 0 keeps sending to
  // it. Its worker must pop and drop the backlog and every later
  // arrival, so the phase still quiesces and every message is either
  // executed or dropped.
  constexpr int kRounds = 200;
  constexpr int kBurst = 20;
  Runtime rt(make_machine(2));
  auto proxy = rt.create_array<Flood>(
      "flood", core::indices_1d(2), core::round_robin_map(2),
      [](const Index&) { return std::make_unique<Flood>(); });
  proxy.send<&Flood::flood>(Index(0), kRounds, kBurst);
  while (proxy.local(Index(1))->absorbed.load() < 50) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  rt.machine().kill_pe(1);
  rt.run();

  const obs::Snapshot snap = rt.machine().metrics().snapshot();
  EXPECT_EQ(snap.counter("rt.sched.msgs_sent"),
            snap.counter("rt.sched.msgs_executed") +
                snap.counter("rt.sched.msgs_dropped"));
  EXPECT_GT(rt.machine().pe_stats(1).msgs_dropped, 0u);
  EXPECT_LT(proxy.local(Index(1))->absorbed.load(), kRounds * kBurst);
  EXPECT_EQ(snap.gauge("rt.sched.queue_depth"), 0.0);
}

TEST(ThreadStress, RepeatedRunsReuseWarmPools) {
  // Several full runtime lifetimes in one process: pools and arenas
  // outlive each Runtime (thread_local), so stale pooled state from a
  // dead machine must never corrupt the next one.
  for (int round = 0; round < 3; ++round) {
    Runtime rt(make_machine(4));
    auto proxy = rt.create_array<Hammer>(
        "hammer", core::indices_1d(16), core::round_robin_map(4),
        [](const Index&) { return std::make_unique<Hammer>(); });
    std::vector<std::int32_t> payload(64, round + 1);
    for (int c = 0; c < 8; ++c) {
      proxy.send<&Hammer::relay>(Index(c), payload, 20);
    }
    rt.run();
    std::int64_t hits = 0;
    for (int i = 0; i < 16; ++i) hits += proxy.local(Index(i))->hits.load();
    EXPECT_EQ(hits, 8 * 21) << "round " << round;
  }
}

}  // namespace
