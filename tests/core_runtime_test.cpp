// Core runtime on SimMachine: entry delivery, marshalling, virtual-time
// semantics, priorities, broadcast/multicast, latency masking basics.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/array.hpp"
#include "core/mapping.hpp"
#include "core/registry.hpp"
#include "core/runtime.hpp"
#include "core/sim_machine.hpp"

namespace {

using namespace mdo;
using core::ArrayProxy;
using core::Chare;
using core::Index;
using core::Pe;
using core::Runtime;
using core::SimMachine;

net::GridLatencyModel::Config flat_link(double wan_ms = 0.0) {
  net::GridLatencyModel::Config cfg;
  cfg.local = {sim::microseconds(0.5), 4000.0};
  cfg.intra = {sim::microseconds(6.5), 250.0};
  cfg.inter = {wan_ms > 0 ? sim::milliseconds(wan_ms) : sim::microseconds(6.5),
               250.0};
  return cfg;
}

std::unique_ptr<SimMachine> make_machine(std::size_t pes, double wan_ms = 0.0) {
  return std::make_unique<SimMachine>(net::Topology::two_cluster(pes),
                                      flat_link(wan_ms));
}

// -- a tiny ping-pong chare ---------------------------------------------

struct Pinger : Chare {
  int pings_seen = 0;
  int hops_left = 0;
  std::vector<int> received_values;

  void ping(int value, int hops) {
    ++pings_seen;
    received_values.push_back(value);
    hops_left = hops;
    if (hops > 0) {
      Index other(index().x == 0 ? 1 : 0);
      runtime().proxy<Pinger>(array_id()).send<&Pinger::ping>(other, value + 1,
                                                              hops - 1);
    }
  }

  void slow(std::int64_t work_ns) { charge(work_ns); }

  void pup(Pup& p) override {
    Chare::pup(p);
    p | pings_seen | hops_left | received_values;
  }
};

TEST(CoreRuntime, PingPongDelivers) {
  Runtime rt(make_machine(2));
  auto proxy = rt.create_array<Pinger>(
      "pingers", core::indices_1d(2), core::block_map_1d(2, rt.num_pes()),
      [](const Index&) { return std::make_unique<Pinger>(); });

  proxy.send<&Pinger::ping>(Index(0), 100, 5);
  rt.run();

  EXPECT_EQ(proxy.local(Index(0))->pings_seen, 3);
  EXPECT_EQ(proxy.local(Index(1))->pings_seen, 3);
  EXPECT_EQ(proxy.local(Index(0))->received_values,
            (std::vector<int>{100, 102, 104}));
  EXPECT_EQ(proxy.local(Index(1))->received_values,
            (std::vector<int>{101, 103, 105}));
}

TEST(CoreRuntime, CrossClusterLatencyShowsInVirtualTime) {
  // 2 PEs, one per cluster, 10 ms WAN one-way: 6 hops of ping-pong must
  // cost at least 60 ms of virtual time.
  Runtime rt(make_machine(2, /*wan_ms=*/10.0));
  auto proxy = rt.create_array<Pinger>(
      "pingers", core::indices_1d(2), core::block_map_1d(2, rt.num_pes()),
      [](const Index&) { return std::make_unique<Pinger>(); });
  proxy.send<&Pinger::ping>(Index(0), 0, 6);
  rt.run();
  EXPECT_GE(rt.now(), sim::milliseconds(60));
  EXPECT_LT(rt.now(), sim::milliseconds(62));
}

TEST(CoreRuntime, ChargeAdvancesVirtualTimeAndLoad) {
  Runtime rt(make_machine(2));
  auto proxy = rt.create_array<Pinger>(
      "pingers", core::indices_1d(1), core::block_map_1d(1, 1),
      [](const Index&) { return std::make_unique<Pinger>(); });
  proxy.send<&Pinger::slow>(Index(0), sim::milliseconds(7));
  rt.run();
  EXPECT_GE(rt.now(), sim::milliseconds(7));
  EXPECT_EQ(proxy.local(Index(0))->load_ns(), sim::milliseconds(7));
  EXPECT_GE(rt.machine().pe_stats(0).busy_ns, sim::milliseconds(7));
}

TEST(CoreRuntime, SequentialExecutionOnOnePe) {
  // Two 5 ms entries on the same PE cannot overlap: total >= 10 ms.
  Runtime rt(make_machine(2));
  auto proxy = rt.create_array<Pinger>(
      "pingers", core::indices_1d(2),
      [](const Index&) { return Pe{0}; },
      [](const Index&) { return std::make_unique<Pinger>(); });
  proxy.send<&Pinger::slow>(Index(0), sim::milliseconds(5));
  proxy.send<&Pinger::slow>(Index(1), sim::milliseconds(5));
  rt.run();
  EXPECT_GE(rt.now(), sim::milliseconds(10));
}

TEST(CoreRuntime, ParallelPesOverlap) {
  // Same work on two PEs: finishes in ~5 ms, not 10.
  Runtime rt(make_machine(2));
  auto proxy = rt.create_array<Pinger>(
      "pingers", core::indices_1d(2), core::block_map_1d(2, 2),
      [](const Index&) { return std::make_unique<Pinger>(); });
  proxy.send<&Pinger::slow>(Index(0), sim::milliseconds(5));
  proxy.send<&Pinger::slow>(Index(1), sim::milliseconds(5));
  rt.run();
  EXPECT_LT(rt.now(), sim::milliseconds(6));
}

// -- priority handling -----------------------------------------------------

struct Recorder : Chare {
  void note(int tag) { order().push_back(tag); }
  static std::vector<int>& order() {
    static std::vector<int> v;
    return v;
  }
};

TEST(CoreRuntime, PriorityOrdersQueue) {
  Recorder::order().clear();
  Runtime rt(make_machine(2));
  auto proxy = rt.create_array<Recorder>(
      "recorders", core::indices_1d(1), core::block_map_1d(1, 1),
      [](const Index&) { return std::make_unique<Recorder>(); });

  // Seed a busy entry so subsequent messages queue up, then send with
  // mixed priorities: lower value must win.
  auto busy = rt.create_array<Pinger>(
      "busy", core::indices_1d(1), core::block_map_1d(1, 1),
      [](const Index&) { return std::make_unique<Pinger>(); });
  busy.send<&Pinger::slow>(Index(0), sim::milliseconds(1));
  proxy.send_prio<&Recorder::note>(5, Index(0), 5);
  proxy.send_prio<&Recorder::note>(1, Index(0), 1);
  proxy.send_prio<&Recorder::note>(3, Index(0), 3);
  proxy.send_prio<&Recorder::note>(1, Index(0), 11);  // FIFO within level
  rt.run();
  EXPECT_EQ(Recorder::order(), (std::vector<int>{1, 11, 3, 5}));
}

// -- broadcast & multicast ---------------------------------------------------

struct Counter : Chare {
  int hits = 0;
  std::vector<double> last_data;
  void bump(int amount) { hits += amount; }
  void data(std::vector<double> d) {
    ++hits;
    last_data = std::move(d);
  }
};

TEST(CoreRuntime, BroadcastReachesAllElements) {
  Runtime rt(make_machine(4));
  auto proxy = rt.create_array<Counter>(
      "counters", core::indices_1d(10), core::block_map_1d(10, 4),
      [](const Index&) { return std::make_unique<Counter>(); });
  proxy.broadcast<&Counter::bump>(3);
  rt.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(proxy.local(Index(i))->hits, 3);
}

TEST(CoreRuntime, BroadcastFromNonRootEntry) {
  Runtime rt(make_machine(4));
  auto proxy = rt.create_array<Counter>(
      "counters", core::indices_1d(8), core::block_map_1d(8, 4),
      [](const Index&) { return std::make_unique<Counter>(); });
  // Trigger the broadcast from an element living on the last PE.
  struct Trigger : Chare {
    core::ArrayId target = -1;
    void fire() {
      runtime().proxy<Counter>(target).broadcast<&Counter::bump>(1);
    }
  };
  auto trig = rt.create_array<Trigger>(
      "trigger", core::indices_1d(1),
      [&rt](const Index&) { return Pe{rt.num_pes() - 1}; },
      [&proxy](const Index&) {
        auto t = std::make_unique<Trigger>();
        t->target = proxy.id();
        return t;
      });
  trig.send<&Trigger::fire>(Index(0));
  rt.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(proxy.local(Index(i))->hits, 1);
}

TEST(CoreRuntime, MulticastHitsExactlyTargets) {
  Runtime rt(make_machine(4));
  auto proxy = rt.create_array<Counter>(
      "counters", core::indices_1d(12), core::block_map_1d(12, 4),
      [](const Index&) { return std::make_unique<Counter>(); });
  std::vector<Index> section{Index(1), Index(5), Index(9), Index(11)};
  proxy.multicast<&Counter::bump>(section, 2);
  rt.run();
  for (int i = 0; i < 12; ++i) {
    bool in_section = i == 1 || i == 5 || i == 9 || i == 11;
    EXPECT_EQ(proxy.local(Index(i))->hits, in_section ? 2 : 0) << "i=" << i;
  }
}

TEST(CoreRuntime, MulticastBundlesPerPe) {
  // 4 targets on 2 distinct PEs: exactly 2 multicast envelopes leave.
  Runtime rt(make_machine(4));
  auto proxy = rt.create_array<Counter>(
      "counters", core::indices_1d(12), core::block_map_1d(12, 4),
      [](const Index&) { return std::make_unique<Counter>(); });
  std::vector<Index> section{Index(0), Index(1), Index(2), Index(3)};
  // Indices 0-2 on PE0, 3-5 on PE1 under block map 12/4.
  auto before = rt.machine().pe_stats(0).msgs_sent;
  proxy.multicast<&Counter::bump>(section, 1);
  rt.run();
  auto after = rt.machine().pe_stats(0).msgs_sent;
  EXPECT_EQ(after - before, 2u);
}

// -- host calls -------------------------------------------------------------

TEST(CoreRuntime, HostCallRunsOnRequestedPe) {
  Runtime rt(make_machine(4));
  Pe seen = core::kInvalidPe;
  rt.schedule_host(3, [&] { seen = rt.current_pe(); });
  rt.run();
  EXPECT_EQ(seen, 3);
}

TEST(CoreRuntime, StopHaltsProcessing) {
  Recorder::order().clear();
  Runtime rt(make_machine(2));
  auto proxy = rt.create_array<Recorder>(
      "recorders", core::indices_1d(1), core::block_map_1d(1, 1),
      [](const Index&) { return std::make_unique<Recorder>(); });
  rt.schedule_host(0, [&] { rt.stop(); });
  proxy.send_prio<&Recorder::note>(10, Index(0), 1);  // lower priority: later
  rt.run();
  EXPECT_TRUE(Recorder::order().empty());
}

// -- send instrumentation ----------------------------------------------------

TEST(CoreRuntime, WanSendsAttributedToElements) {
  Runtime rt(make_machine(2, /*wan_ms=*/1.0));
  auto proxy = rt.create_array<Pinger>(
      "pingers", core::indices_1d(2), core::block_map_1d(2, 2),
      [](const Index&) { return std::make_unique<Pinger>(); });
  proxy.send<&Pinger::ping>(Index(0), 0, 4);
  rt.run();
  auto* p0 = proxy.local(Index(0));
  EXPECT_EQ(p0->msgs_sent(), 2u);  // hops 4->3 and 2->1 sent by element 0
  EXPECT_EQ(p0->wan_msgs_sent(), 2u);
  EXPECT_GT(p0->wan_bytes_sent(), 0u);
}

// -- parameterized: machine sizes ------------------------------------------

class RingSweep : public ::testing::TestWithParam<int> {};

struct RingNode : Chare {
  int received = 0;
  int ring_size = 0;
  void token(int remaining_laps) {
    ++received;
    if (index().x == ring_size - 1 && remaining_laps == 0) return;
    Index next((index().x + 1) % ring_size);
    int laps = (index().x == ring_size - 1) ? remaining_laps - 1 : remaining_laps;
    runtime().proxy<RingNode>(array_id()).send<&RingNode::token>(next, laps);
  }
};

TEST_P(RingSweep, TokenCompletesLapsOnAnyPeCount) {
  const int pes = GetParam();
  const int n = 12;
  Runtime rt(make_machine(static_cast<std::size_t>(pes)));
  auto proxy = rt.create_array<RingNode>(
      "ring", core::indices_1d(n), core::round_robin_map(pes),
      [n](const Index&) {
        auto e = std::make_unique<RingNode>();
        e->ring_size = n;
        return e;
      });
  proxy.send<&RingNode::token>(Index(0), 2);
  rt.run();
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(proxy.local(Index(i))->received, i == 0 ? 3 : 3)
        << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(PeCounts, RingSweep, ::testing::Values(2, 4, 8, 16));

// -- entry registry ---------------------------------------------------------

struct Unsent : Chare {
  void never_sent() {}
};

TEST(EntryRegistry, IdsAreFixedBeforeFirstUse) {
  // Registration happens at load time: asking for the id of a method no
  // code has sent yet finds it already registered and adds nothing.
  const std::size_t before = core::Registry::instance().size();
  const core::EntryId id = core::entry_id<&Unsent::never_sent>();
  EXPECT_LT(static_cast<std::size_t>(id), before);
  EXPECT_EQ(core::Registry::instance().size(), before);
  EXPECT_EQ(core::entry_id<&Unsent::never_sent>(), id);
}

TEST(EntryRegistry, AddAfterFreezeAbortsNamingTheMethod) {
  EXPECT_DEATH(
      {
        auto& reg = core::Registry::instance();
        reg.freeze();
        reg.add(core::EntryInfo{"Unsent::late_entry",
                                +[](Chare&, std::span<const std::byte>) {}});
      },
      "registered after the registry froze: Unsent::late_entry");
}

}  // namespace
