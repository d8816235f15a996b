// SimMachine accounting details: per-message overhead arithmetic, fabric
// statistics, tracing, timed callbacks, and odd-shaped arrays.

#include <gtest/gtest.h>

#include <memory>

#include "core/array.hpp"
#include "core/mapping.hpp"
#include "core/runtime.hpp"
#include "core/sim_machine.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace mdo;
using core::Chare;
using core::Index;
using core::Pe;
using core::Runtime;
using core::SimMachine;

SimMachine::Overheads tight_overheads() {
  SimMachine::Overheads ov;
  ov.send = sim::microseconds(10);
  ov.recv = sim::microseconds(20);
  return ov;
}

std::unique_ptr<SimMachine> make_machine(std::size_t pes) {
  net::GridLatencyModel::Config cfg;
  cfg.local = {0, 1e18};  // isolate the overhead terms
  cfg.intra = {0, 1e18};
  cfg.inter = {0, 1e18};
  return std::make_unique<SimMachine>(net::Topology::two_cluster(pes), cfg,
                                      tight_overheads());
}

struct Probe : Chare {
  int sends = 0;
  void fire(int n_sends) {
    for (int i = 0; i < n_sends; ++i) {
      runtime().proxy<Probe>(array_id()).send<&Probe::sink>(Index(1));
    }
    sends += n_sends;
  }
  void sink() {}
};

TEST(SimMachineAccounting, OverheadsAreChargedExactly) {
  // One delivery with 3 sends: busy = recv + 3*send = 20 + 30 us.
  Runtime rt(make_machine(2));
  auto proxy = rt.create_array<Probe>(
      "probe", core::indices_1d(2), core::block_map_1d(2, 2),
      [](const Index&) { return std::make_unique<Probe>(); });
  proxy.send<&Probe::fire>(Index(0), 3);
  rt.run();
  auto stats0 = rt.machine().pe_stats(0);
  EXPECT_EQ(stats0.msgs_executed, 1u);
  EXPECT_EQ(stats0.busy_ns, sim::microseconds(20) + 3 * sim::microseconds(10));
  // The three sinks on PE 1: 3 deliveries at recv overhead each.
  auto stats1 = rt.machine().pe_stats(1);
  EXPECT_EQ(stats1.msgs_executed, 3u);
  EXPECT_EQ(stats1.busy_ns, 3 * sim::microseconds(20));
}

TEST(SimMachineAccounting, CompletionTimeIncludesAllOverheads) {
  Runtime rt(make_machine(2));
  auto proxy = rt.create_array<Probe>(
      "probe", core::indices_1d(2), core::block_map_1d(2, 2),
      [](const Index&) { return std::make_unique<Probe>(); });
  proxy.send<&Probe::fire>(Index(0), 1);
  rt.run();
  // fire: recv(20) + send(10); sink: recv(20). Links are free.
  EXPECT_EQ(rt.now(), sim::microseconds(50));
}

TEST(SimMachineAccounting, FabricCountsOnlyCrossPeTraffic) {
  Runtime rt(make_machine(4));
  struct Sender : Chare {
    void local_then_remote() {
      auto proxy = runtime().proxy<Sender>(array_id());
      proxy.send<&Sender::noop>(Index(1));  // same PE
      proxy.send<&Sender::noop>(Index(2));  // other PE, other cluster
    }
    void noop() {}
  };
  auto snd = rt.create_array<Sender>(
      "senders", core::indices_1d(3),
      [](const Index& i) { return Pe{i.x < 2 ? 0 : 2}; },
      [](const Index&) { return std::make_unique<Sender>(); });
  const obs::Snapshot before = rt.machine().metrics().snapshot();
  snd.send<&Sender::local_then_remote>(Index(0));
  rt.run();
  const obs::Snapshot phase = rt.machine().metrics().snapshot().diff(before);
  // Host seed crosses nothing (PE 0 to PE 0), the local send bypasses the
  // fabric, the remote send is 1 packet and it crosses clusters.
  EXPECT_EQ(phase.counter("fabric.packets_sent"), 1u);
  EXPECT_EQ(phase.counter("fabric.wan_packets"), 1u);
  EXPECT_GT(phase.counter("fabric.bytes_sent"), 0u);
}

TEST(SimMachineAccounting, TracingCapturesIntervals) {
  auto machine = make_machine(2);
  machine->set_tracing(true);
  Runtime rt(std::move(machine));
  auto proxy = rt.create_array<Probe>(
      "probe", core::indices_1d(2), core::block_map_1d(2, 2),
      [](const Index&) { return std::make_unique<Probe>(); });
  proxy.send<&Probe::fire>(Index(0), 2);
  rt.run();
  auto trace = rt.machine().trace();
  ASSERT_GE(trace.size(), 3u);
  for (const auto& ev : trace) {
    EXPECT_LT(ev.begin, ev.end);
    EXPECT_GE(ev.pe, 0);
  }
  // Intervals on one PE never overlap.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    for (std::size_t j = i + 1; j < trace.size(); ++j) {
      if (trace[i].pe == trace[j].pe) {
        EXPECT_TRUE(trace[i].end <= trace[j].begin ||
                    trace[j].end <= trace[i].begin);
      }
    }
  }
}

TEST(SimMachineAccounting, CallAfterFiresAtTheRightTime) {
  Runtime rt(make_machine(2));
  sim::TimeNs fired_at = -1;
  rt.machine().call_after(sim::milliseconds(3), [&] { fired_at = rt.now(); });
  rt.run();
  EXPECT_EQ(fired_at, sim::milliseconds(3));
}

TEST(SimMachineAccounting, AdvanceTimeMovesIdleClock) {
  Runtime rt(make_machine(2));
  rt.machine().advance_time(sim::milliseconds(5));
  EXPECT_EQ(rt.now(), sim::milliseconds(5));
  // And pending events inside the window still execute.
  bool fired = false;
  rt.machine().call_after(sim::milliseconds(1), [&] { fired = true; });
  rt.machine().advance_time(sim::milliseconds(2));
  EXPECT_TRUE(fired);
  EXPECT_EQ(rt.now(), sim::milliseconds(7));
}

TEST(CoreEdge, EmptyArrayBroadcastIsHarmless) {
  Runtime rt(make_machine(2));
  auto proxy = rt.create_array<Probe>(
      "empty", std::vector<Index>{}, core::block_map_1d(1, 1),
      [](const Index&) { return std::make_unique<Probe>(); });
  proxy.broadcast<&Probe::sink>();
  rt.run();
  EXPECT_EQ(proxy.num_elements(), 0u);
}

TEST(CoreEdge, EnvelopePupRoundtrip) {
  core::Envelope env;
  env.kind = core::MsgKind::kMulticast;
  env.src_pe = 3;
  env.dst_pe = 7;
  env.array = 2;
  env.index = core::Index(1, 2, 3);
  env.entry = 9;
  env.priority = -5;
  env.flags = core::Envelope::kFlagFanout;
  env.seq = 12345;
  env.sent_at = sim::milliseconds(2);
  env.payload =
      PayloadBuf::adopt(Bytes{std::byte{1}, std::byte{2}, std::byte{3}});

  Bytes b = pack_object(env);
  core::Envelope out;
  unpack_object(b, out);
  EXPECT_EQ(out.kind, env.kind);
  EXPECT_EQ(out.src_pe, 3);
  EXPECT_EQ(out.dst_pe, 7);
  EXPECT_EQ(out.index, core::Index(1, 2, 3));
  EXPECT_EQ(out.priority, -5);
  EXPECT_EQ(out.flags, core::Envelope::kFlagFanout);
  EXPECT_EQ(out.payload, env.payload);
  EXPECT_EQ(out.wire_bytes(), 3u + core::Envelope::kHeaderBytes);
}

TEST(CoreEdge, IndexHashSpreadsAndCompares) {
  core::IndexHash hash;
  EXPECT_NE(hash(core::Index(1, 2, 3)), hash(core::Index(3, 2, 1)));
  EXPECT_EQ(hash(core::Index(5)), hash(core::Index(5, 0, 0)));
  EXPECT_LT(core::Index(1, 2), core::Index(1, 3));
  EXPECT_LT(core::Index(1, 2, 3), core::Index(2, 0, 0));
}

TEST(CoreEdge, SendToNonexistentElementDies) {
  Runtime rt(make_machine(2));
  auto proxy = rt.create_array<Probe>(
      "probe", core::indices_1d(2), core::block_map_1d(2, 2),
      [](const Index&) { return std::make_unique<Probe>(); });
  EXPECT_DEATH(proxy.send<&Probe::sink>(Index(99)), "nonexistent");
}

TEST(CoreEdge, MapperBoundsAreChecked) {
  Runtime rt(make_machine(2));
  EXPECT_DEATH(rt.create_array<Probe>(
                   "bad", core::indices_1d(1),
                   [](const Index&) { return Pe{57}; },
                   [](const Index&) { return std::make_unique<Probe>(); }),
               "off-machine");
}

}  // namespace
