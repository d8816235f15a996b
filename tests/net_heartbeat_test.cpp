// Failure detector: heartbeat device behavior on the device chain, WAN
// tolerance of the timeout, and the reliable layer's retransmission
// give-up as the second detection signal.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/array.hpp"
#include "core/mapping.hpp"
#include "core/runtime.hpp"
#include "grid/scenario.hpp"
#include "net/heartbeat.hpp"

namespace {

using namespace mdo;
using core::Index;
using core::Pe;
using core::Runtime;

TEST(HeartbeatInstall, CrashyScenarioInstallsDetectorLossyDoesNot) {
  auto crashy =
      grid::make_machine(grid::Scenario::artificial(4, sim::milliseconds(8.0)).with_crashes());
  ASSERT_NE(crashy->reliability().heartbeat, nullptr);
  EXPECT_NE(crashy->reliability().reliable, nullptr);

  auto lossy = grid::make_machine(
      grid::Scenario::artificial(4, sim::milliseconds(8.0)).with_loss(0.01));
  EXPECT_EQ(lossy->reliability().heartbeat, nullptr);
}

TEST(HeartbeatInstall, TimeoutMustExceedPeriod) {
  net::Topology topo = net::Topology::two_cluster(4);
  net::HeartbeatConfig bad;
  bad.enabled = true;
  bad.period = sim::milliseconds(10.0);
  bad.timeout = sim::milliseconds(10.0);
  EXPECT_DEATH(net::HeartbeatDevice(&topo, bad), "timeout must exceed");
}

TEST(HeartbeatSim, DetectsKilledPeWithinTimeout) {
  // Pure message-layer run: beats are consumed at the device, so no
  // Runtime is needed to drive the DES.
  grid::Scenario s = grid::Scenario::artificial(4, sim::milliseconds(8.0)).with_crashes();
  auto owned = grid::make_machine(s);
  auto* machine = static_cast<core::SimMachine*>(owned.get());
  net::HeartbeatDevice* hb = machine->reliability().heartbeat;
  ASSERT_NE(hb, nullptr);

  const sim::TimeNs t_kill = sim::milliseconds(100.0);
  std::vector<net::NodeId> deaths;
  hb->set_on_peer_dead(
      [&](net::NodeId node, sim::TimeNs) { deaths.push_back(node); });

  hb->watch(sim::milliseconds(500.0));
  machine->kill_pe(2, t_kill);
  machine->run();

  EXPECT_TRUE(hb->declared_dead(2));
  EXPECT_EQ(hb->peer_state(2), net::PeerState::kDead);
  ASSERT_EQ(deaths.size(), 1u);
  EXPECT_EQ(deaths[0], 2);
  // Silence starts at the victim's last beat, up to one period before
  // the kill. Declaration is two-stage now: the timeout past the last
  // beat raises a suspect, and the confirm window (with indirect probes
  // unanswered, since the peer really is dead) elapses before the death
  // is confirmed. The upper bound allows tick granularity plus the WAN
  // transit of the final pre-kill beat.
  EXPECT_GE(hb->detected_at(2), t_kill - s.heartbeat.period +
                                    s.heartbeat.timeout +
                                    s.heartbeat.confirm_window);
  EXPECT_LE(hb->detected_at(2), t_kill + s.heartbeat.timeout +
                                    s.heartbeat.confirm_window +
                                    2 * s.artificial_one_way +
                                    3 * s.heartbeat.period);
  for (net::NodeId alive : {0, 1, 3}) {
    EXPECT_FALSE(hb->declared_dead(alive)) << "node " << alive;
    EXPECT_EQ(hb->peer_state(alive), net::PeerState::kAlive);
  }
  EXPECT_GT(hb->counters().beats_sent, 0u);
  EXPECT_GE(hb->counters().suspects_raised, 1u);
  EXPECT_GT(hb->counters().probes_sent, 0u);
  EXPECT_EQ(hb->counters().peers_declared_dead, 1u);
}

TEST(HeartbeatSim, WanLatencyIsNotMisreadAsDeath) {
  // 32 ms one-way WAN: every cross-cluster beat arrives 32 ms stale. The
  // crashy timeout (2*one_way + 4*period) must absorb that.
  grid::Scenario s = grid::Scenario::artificial(4, sim::milliseconds(32.0)).with_crashes();
  ASSERT_GT(s.heartbeat.timeout, sim::milliseconds(32.0));
  auto owned = grid::make_machine(s);
  auto* machine = static_cast<core::SimMachine*>(owned.get());
  net::HeartbeatDevice* hb = machine->reliability().heartbeat;
  ASSERT_NE(hb, nullptr);

  hb->watch(sim::milliseconds(800.0));
  machine->run();

  EXPECT_EQ(hb->counters().peers_declared_dead, 0u);
  // The sized timeout absorbs the staleness outright: peers never even
  // enter the suspect state, let alone get confirmed dead.
  EXPECT_EQ(hb->counters().suspects_raised, 0u);
  for (net::NodeId peer : {0, 1, 2, 3}) {
    EXPECT_EQ(hb->peer_state(peer), net::PeerState::kAlive) << peer;
  }
  EXPECT_GT(hb->counters().beats_received, 0u);
  EXPECT_EQ(machine->fabric().stats().dead_node_drops, 0u);
}

TEST(HeartbeatSim, TooTightTimeoutMisreadsWanLatency) {
  // The cautionary inverse: a LAN-tuned timeout below the WAN one-way
  // latency suspects healthy peers, and a confirm window shorter than
  // the probe round trip confirms them before the indirect-probe acks
  // can refute. This is the misconfiguration the crashy() sizing rules
  // exist to prevent (either knob alone would be survivable: a sized
  // confirm window lets probe acks demote the false suspects).
  grid::Scenario s = grid::Scenario::artificial(4, sim::milliseconds(32.0)).with_crashes();
  s.heartbeat.period = sim::milliseconds(2.0);
  s.heartbeat.timeout = sim::milliseconds(10.0);        // < 32 ms one-way
  s.heartbeat.confirm_window = sim::milliseconds(5.0);  // < probe RTT
  auto owned = grid::make_machine(s);
  auto* machine = static_cast<core::SimMachine*>(owned.get());
  net::HeartbeatDevice* hb = machine->reliability().heartbeat;
  ASSERT_NE(hb, nullptr);

  hb->watch(sim::milliseconds(400.0));
  machine->run();

  EXPECT_GT(hb->counters().suspects_raised, 0u);
  EXPECT_GT(hb->counters().peers_declared_dead, 0u);
}

TEST(HeartbeatSim, SizedConfirmWindowRefutesFalseSuspicion) {
  // Timeout too tight for the WAN (suspects WILL be raised), but the
  // confirm window is left at the crashy() sizing, which covers the
  // four-hop indirect-probe round trip. Probe acks relayed through a
  // third party demote every false suspect before confirmation: a
  // partition-tolerant detector distinguishes "slow" from "dead".
  grid::Scenario s = grid::Scenario::artificial(4, sim::milliseconds(32.0)).with_crashes();
  s.heartbeat.period = sim::milliseconds(2.0);
  s.heartbeat.timeout = sim::milliseconds(10.0);  // < 32 ms one-way
  s.heartbeat.confirm_window =
      4 * sim::milliseconds(32.0) + 4 * s.heartbeat.period;
  auto owned = grid::make_machine(s);
  auto* machine = static_cast<core::SimMachine*>(owned.get());
  net::HeartbeatDevice* hb = machine->reliability().heartbeat;
  ASSERT_NE(hb, nullptr);

  hb->watch(sim::milliseconds(400.0));
  machine->run();

  EXPECT_GT(hb->counters().suspects_raised, 0u);
  EXPECT_GT(hb->counters().suspects_cleared, 0u);
  EXPECT_EQ(hb->counters().peers_declared_dead, 0u);
}

TEST(HeartbeatSim, WatchRearmToleratesIdleGap) {
  // Regression: a second watch phase after an idle gap (ticker stopped,
  // no beats flowing, timestamps going stale) must re-arm with a grace
  // refresh instead of reading the gap as silence and declaring every
  // peer suspect/dead on its first tick.
  grid::Scenario s = grid::Scenario::artificial(4, sim::milliseconds(8.0)).with_crashes();
  auto owned = grid::make_machine(s);
  auto* machine = static_cast<core::SimMachine*>(owned.get());
  net::HeartbeatDevice* hb = machine->reliability().heartbeat;
  ASSERT_NE(hb, nullptr);

  hb->watch(sim::milliseconds(200.0));
  machine->run();
  EXPECT_EQ(hb->counters().suspects_raised, 0u);

  // Idle gap far past timeout + confirm window: no ticker, no beats.
  machine->advance_time(sim::seconds(2.0));

  hb->watch(sim::milliseconds(200.0));
  machine->run();

  EXPECT_EQ(hb->counters().suspects_raised, 0u);
  EXPECT_EQ(hb->counters().peers_declared_dead, 0u);
  for (net::NodeId peer : {0, 1, 2, 3}) {
    EXPECT_EQ(hb->peer_state(peer), net::PeerState::kAlive) << peer;
  }
}

struct Poke : core::Chare {
  std::int64_t value = 0;
  void add(std::int64_t by) { value += by; }
  void pup(Pup& p) override {
    Chare::pup(p);
    p | value;
  }
};

TEST(ReliableGiveUp, DeadPeerTriggersUnreachableCallback) {
  grid::Scenario s = grid::Scenario::artificial(4, sim::milliseconds(2.0)).with_crashes();
  auto owned = grid::make_machine(s);
  auto* sim = static_cast<core::SimMachine*>(owned.get());
  Runtime rt(std::move(owned));
  auto proxy = rt.create_array<Poke>(
      "pokes", core::indices_1d(4), core::round_robin_map(4),
      [](const Index&) { return std::make_unique<Poke>(); });

  std::vector<std::pair<net::NodeId, net::NodeId>> unreachable;
  sim->reliability().reliable->set_on_peer_unreachable(
      [&](net::NodeId peer, net::NodeId self) {
        unreachable.emplace_back(peer, self);
      });

  sim->kill_pe(2, sim::milliseconds(10.0));
  // Traffic toward the dead PE, issued well after the crash: data frames
  // are delivered into the void (dropped at the dead machine), acks from
  // the dead node are squashed, so the sender's flow backs off and
  // eventually abandons.
  rt.machine().call_after(sim::milliseconds(20.0), [&] {
    proxy.send<&Poke::add>(Index(2), 7);
    proxy.send<&Poke::add>(Index(2), 8);
  });
  rt.run();

  EXPECT_GE(sim->reliability().reliable->counters().flows_abandoned, 1u);
  ASSERT_FALSE(unreachable.empty());
  for (const auto& [peer, self] : unreachable) {
    EXPECT_EQ(peer, 2);
    EXPECT_NE(self, 2);
  }
  EXPECT_GE(rt.machine().pe_stats(2).msgs_dropped, 1u);
  EXPECT_EQ(sim->pes_killed(), 1u);
  EXPECT_GT(sim->fabric().stats().dead_node_drops, 0u);
}

TEST(ReliableGiveUp, TenXSlowerLinkDoesNotExhaustTimeBudget) {
  // Regression for the time-based give-up: the first RTO assumes a link
  // 10x faster than reality (rto_initial = RTT/10), so every frame sent
  // before its flow's first RTT sample is retransmitted several times
  // before its ack can possibly return. A
  // retry-count budget reads that as an unreachable peer; the time
  // budget only starts its stall clock at the first no-progress timeout
  // and resets it on ack progress, so the flow survives and delivery
  // stays exactly-once.
  grid::Scenario s = grid::Scenario::artificial(4, sim::milliseconds(20.0)).with_crashes();
  s.reliable.rto_initial = sim::milliseconds(4.0);  // RTT is 40 ms
  s.reliable.give_up_budget = 24 * s.reliable.rto_initial;
  auto owned = grid::make_machine(s);
  auto* sim = static_cast<core::SimMachine*>(owned.get());
  Runtime rt(std::move(owned));
  auto proxy = rt.create_array<Poke>(
      "pokes", core::indices_1d(8), core::round_robin_map(4),
      [](const Index&) { return std::make_unique<Poke>(); });
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 8; ++i) proxy.send<&Poke::add>(Index(i), 1);
  }
  rt.run();
  EXPECT_GT(sim->reliability().reliable->counters().retransmits, 0u);
  EXPECT_EQ(sim->reliability().reliable->counters().flows_abandoned, 0u);
  EXPECT_EQ(sim->reliability().reliable->counters().peers_abandoned, 0u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(proxy.local(Index(i))->value, 5);
}

TEST(ReliableGiveUp, LiveLossyPeerIsNotAbandoned) {
  // Heavy but survivable loss: retransmissions make progress before the
  // give-up budget's stall clock runs out, so no flow is ever abandoned.
  grid::Scenario s = grid::Scenario::artificial(4, sim::milliseconds(2.0)).with_loss(0.05, 3);
  auto owned = grid::make_machine(s);
  auto* sim = static_cast<core::SimMachine*>(owned.get());
  Runtime rt(std::move(owned));
  auto proxy = rt.create_array<Poke>(
      "pokes", core::indices_1d(8), core::round_robin_map(4),
      [](const Index&) { return std::make_unique<Poke>(); });
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 8; ++i) proxy.send<&Poke::add>(Index(i), 1);
  }
  rt.run();
  EXPECT_EQ(sim->reliability().reliable->counters().flows_abandoned, 0u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(proxy.local(Index(i))->value, 20);
}

}  // namespace
