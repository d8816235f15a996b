// Chaos tier: seeded network-partition schedules against the full
// stack. The invariants under test are the partition-tolerance
// contract: a partition shorter than the confirm window never reaches
// recovery (zero false kills), indirect probes distinguish a severed
// link from a dead node, quarantine keeps memory bounded and applies
// backpressure instead of dropping, and flows resume exactly-once,
// bit-identical, across the heal.
//
// Topology note: both machines share one device instance per layer
// across all in-process nodes, so a node's liveness timestamp refreshes
// on any frame it sends to anyone. To starve a node the tests isolate a
// single-node cluster (5 PEs over 3 clusters puts node 4 alone in
// cluster C) and partition every directed pair touching that cluster.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "apps/stencil/stencil.hpp"
#include "core/array.hpp"
#include "core/mapping.hpp"
#include "core/runtime.hpp"
#include "grid/scenario.hpp"
#include "machine_probe.hpp"
#include "net/heartbeat.hpp"

namespace {

using namespace mdo;
using core::Index;
using core::Runtime;

/// Sever every directed cluster pair touching `island` for the window
/// [start, start + duration): a full partition of that cluster.
void isolate_cluster(grid::Scenario& s, net::ClusterId island,
                     std::size_t n_clusters, sim::TimeNs start,
                     sim::TimeNs duration) {
  for (std::size_t c = 0; c < n_clusters; ++c) {
    const auto other = static_cast<net::ClusterId>(c);
    if (other == island) continue;
    s.with_partition(island, other, start, duration);
    s.with_partition(other, island, start, duration);
  }
}

TEST(ChaosSim, PartitionShorterThanConfirmWindowIsNeverFatal) {
  // Full isolation of node 4's cluster, long enough to raise suspicion
  // (past the timeout) but healing before the confirm window elapses:
  // the returning beats must demote the suspect, and recovery must see
  // nothing at all.
  grid::Scenario s = grid::Scenario::artificial(5, sim::milliseconds(8.0))
                         .with_clusters(3)
                         .with_crashes();
  // timeout = 44 ms, confirm_window = 68 ms at this geometry; suspicion
  // lands ~106 ms (last pre-partition beat + timeout), so the heal at
  // 110 ms beats the ~174 ms confirm deadline by a wide margin.
  isolate_cluster(s, 2, 3, sim::milliseconds(50.0), sim::milliseconds(60.0));
  auto machine = grid::make_machine(s);
  net::HeartbeatDevice* hb = machine->reliability().heartbeat;
  ASSERT_NE(hb, nullptr);

  hb->watch(sim::milliseconds(400.0));
  machine->run();

  EXPECT_GE(hb->counters().suspects_raised, 1u);
  EXPECT_GE(hb->counters().suspects_cleared, 1u);
  EXPECT_EQ(hb->counters().peers_declared_dead, 0u);
  for (net::NodeId peer : {0, 1, 2, 3, 4}) {
    EXPECT_EQ(hb->peer_state(peer), net::PeerState::kAlive) << peer;
  }
  EXPECT_GT(machine->reliability().faults->counters().partition_dropped, 0u);
}

TEST(ChaosSim, IndirectProbesRefuteDirectedPartitionPastConfirmWindow) {
  // Only the monitor-side link (cluster 2 <-> cluster 0) is severed, for
  // far longer than the confirm window. Node 4's beats (ring successor 0)
  // all die, so it is suspected over and over — but the relay in cluster
  // 1 reaches it over an independent path, and every relayed probe ack
  // refutes the suspicion before it can be confirmed.
  grid::Scenario s = grid::Scenario::artificial(5, sim::milliseconds(8.0))
                         .with_clusters(3)
                         .with_crashes();
  s.with_partition(2, 0, sim::milliseconds(30.0), sim::milliseconds(300.0));
  s.with_partition(0, 2, sim::milliseconds(30.0), sim::milliseconds(300.0));
  auto machine = grid::make_machine(s);
  net::HeartbeatDevice* hb = machine->reliability().heartbeat;
  ASSERT_NE(hb, nullptr);

  hb->watch(sim::milliseconds(600.0));
  machine->run();

  EXPECT_GE(hb->counters().suspects_raised, 1u);
  EXPECT_GE(hb->counters().suspects_cleared, 1u);
  EXPECT_GT(hb->counters().probes_sent, 0u);
  EXPECT_GT(hb->counters().probes_relayed, 0u);
  EXPECT_GT(hb->counters().probe_acks, 0u);
  EXPECT_EQ(hb->counters().peers_declared_dead, 0u);
  EXPECT_EQ(hb->peer_state(4), net::PeerState::kAlive);
}

TEST(ChaosSim, TrueCrashIsStillConfirmedInBoundedTime) {
  // The discrimination's other half: a genuinely dead node answers no
  // probe on any path, so partition tolerance must not delay its
  // confirmation beyond timeout + confirm window (plus tick/WAN slack).
  grid::Scenario s = grid::Scenario::artificial(5, sim::milliseconds(8.0))
                         .with_clusters(3)
                         .with_crashes();
  auto owned = grid::make_machine(s);
  auto* machine = static_cast<core::SimMachine*>(owned.get());
  net::HeartbeatDevice* hb = machine->reliability().heartbeat;
  ASSERT_NE(hb, nullptr);

  const sim::TimeNs t_kill = sim::milliseconds(50.0);
  machine->kill_pe(4, t_kill);
  hb->watch(sim::milliseconds(600.0));
  machine->run();

  EXPECT_TRUE(hb->declared_dead(4));
  EXPECT_EQ(hb->counters().peers_declared_dead, 1u);
  EXPECT_GE(hb->detected_at(4), t_kill - s.heartbeat.period +
                                    s.heartbeat.timeout +
                                    s.heartbeat.confirm_window);
  EXPECT_LE(hb->detected_at(4), t_kill + s.heartbeat.timeout +
                                    s.heartbeat.confirm_window +
                                    2 * s.max_one_way() +
                                    3 * s.heartbeat.period);
}

struct Poke : core::Chare {
  std::int64_t value = 0;
  void add(std::int64_t by) { value += by; }
  void pup(Pup& p) override {
    Chare::pup(p);
    p | value;
  }
};

TEST(ChaosSim, QuarantineBoundsMemoryAndBackpressuresSenders) {
  // Pump traffic at a quarantined peer with a tiny buffer bound: the
  // device must hold at most the bound, trip the congestion callback,
  // and the machine must park the overflow — then deliver everything
  // exactly once after the heal.
  grid::Scenario s = grid::Scenario::artificial(5, sim::milliseconds(4.0))
                         .with_clusters(3)
                         .with_crashes();
  s.reliable.quarantine_max_frames = 8;
  // Stretch the confirm window so the 140 ms outage stays a suspicion.
  s.heartbeat.confirm_window = sim::milliseconds(200.0);
  isolate_cluster(s, 2, 3, sim::milliseconds(20.0), sim::milliseconds(140.0));
  auto machine = grid::make_machine(s);
  auto* sim = static_cast<core::SimMachine*>(machine.get());
  Runtime rt(std::move(machine));
  auto proxy = rt.create_array<Poke>(
      "pokes", core::indices_1d(5), core::round_robin_map(5),
      [](const Index&) { return std::make_unique<Poke>(); });
  net::ReliableDevice* rel = sim->reliability().reliable;
  net::HeartbeatDevice* hb = sim->reliability().heartbeat;
  ASSERT_NE(hb, nullptr);

  hb->watch(sim::milliseconds(800.0));
  // 40 messages at node 4's element, issued mid-outage once suspicion
  // (and with it the quarantine) is established.
  rt.machine().call_after(sim::milliseconds(100.0), [&] {
    for (int i = 0; i < 40; ++i) proxy.send<&Poke::add>(Index(4), 1);
  });
  bool was_quarantined = false;
  std::size_t parked_mid_outage = 0;
  rt.machine().call_after(sim::milliseconds(120.0), [&] {
    was_quarantined = rel->peer_quarantined(4);
    parked_mid_outage = sim->parked_envelopes();
  });
  rt.run();

  EXPECT_TRUE(was_quarantined);
  EXPECT_GT(parked_mid_outage, 0u);
  EXPECT_GE(rel->counters().quarantines_started, 1u);
  EXPECT_GE(rel->counters().quarantines_resumed, 1u);
  EXPECT_GE(rel->counters().frames_held, 1u);
  EXPECT_GE(rel->counters().backpressure_events, 1u);
  EXPECT_LE(rel->counters().quarantine_peak_frames, 8u);
  EXPECT_EQ(rel->counters().flows_abandoned, 0u);
  EXPECT_EQ(hb->counters().peers_declared_dead, 0u);
  // Exactly-once across the heal: all 40, no loss, no duplication.
  EXPECT_EQ(proxy.local(Index(4))->value, 40);
  EXPECT_EQ(sim->parked_envelopes(), 0u);
  EXPECT_EQ(rel->unacked_frames(), 0u);
}

std::vector<double> run_stencil_chaos(bool with_partitions,
                                      sim::TimeNs* virtual_end) {
  grid::Scenario s = grid::Scenario::artificial(6, sim::milliseconds(4.0))
                         .with_clusters(3)
                         .with_loss(0.02, 7)
                         .with_crashes();
  if (with_partitions) {
    // Seeded schedule: windows of 5-15 ms, all far below the ~44 ms
    // confirm window, scattered over the run.
    s.with_partitions(/*seed=*/42, /*count=*/6,
                      /*mean_len=*/sim::milliseconds(10.0),
                      /*horizon=*/sim::milliseconds(200.0));
  }
  auto machine = grid::make_machine(s);
  auto* sim = static_cast<core::SimMachine*>(machine.get());
  Runtime rt(std::move(machine));
  apps::stencil::Params p;
  p.mesh = 16;
  p.objects = 16;
  p.real_compute = true;
  apps::stencil::StencilApp app(rt, p);
  sim->reliability().heartbeat->watch(sim::seconds(1.0));
  app.run_steps(6);
  EXPECT_EQ(sim->reliability().heartbeat->counters().peers_declared_dead, 0u);
  EXPECT_EQ(sim->reliability().reliable->counters().flows_abandoned, 0u);
  if (virtual_end != nullptr) *virtual_end = rt.now();
  return app.gather_mesh();
}

TEST(ChaosSim, SeededPartitionScheduleIsHarmlessAndDeterministic) {
  // Sub-confirm-window partitions under 2% frame loss: zero recoveries,
  // results bit-identical to the partition-free run, and the whole chaos
  // run replays bit-identically (same seed, same virtual end time).
  sim::TimeNs end_a = 0, end_b = 0;
  std::vector<double> chaotic_a = run_stencil_chaos(true, &end_a);
  std::vector<double> chaotic_b = run_stencil_chaos(true, &end_b);
  std::vector<double> clean = run_stencil_chaos(false, nullptr);

  EXPECT_EQ(end_a, end_b);
  ASSERT_EQ(chaotic_a.size(), chaotic_b.size());
  ASSERT_EQ(chaotic_a.size(), clean.size());
  for (std::size_t i = 0; i < chaotic_a.size(); ++i) {
    ASSERT_EQ(chaotic_a[i], chaotic_b[i]) << "cell " << i;
    ASSERT_EQ(chaotic_a[i], clean[i]) << "cell " << i;
  }
}

TEST(ChaosThread, ManualPartitionHealsExactlyOnce) {
  // Real-threads end of the contract, with deliberately weak timing
  // assertions (CI hosts and sanitizers deschedule arbitrarily): sever
  // node 4's cluster with the manual toggles, push traffic into the
  // outage, heal, and require exactly-once delivery with zero deaths
  // and zero abandoned flows.
  grid::Scenario s = grid::Scenario::artificial(5, sim::milliseconds(1.0))
                         .with_clusters(3)
                         .with_crashes();
  s.heartbeat.period = sim::milliseconds(20.0);
  s.heartbeat.timeout = sim::milliseconds(150.0);
  s.heartbeat.confirm_window = sim::seconds(10.0);  // never confirms here
  s.reliable.give_up_budget = sim::seconds(30.0);
  core::MachineOptions cfg;
  cfg.emulate_charge = false;
  auto machine = grid::make_machine(s, grid::Backend::kThread, cfg);
  auto* tm = static_cast<core::ThreadMachine*>(machine.get());
  Runtime rt(std::move(machine));
  auto proxy = rt.create_array<Poke>(
      "pokes", core::indices_1d(5), core::round_robin_map(5),
      [](const Index&) { return std::make_unique<Poke>(); });
  net::FaultDevice* fd = tm->reliability().faults;
  net::HeartbeatDevice* hb = tm->reliability().heartbeat;
  ASSERT_NE(fd, nullptr);
  ASSERT_NE(hb, nullptr);

  hb->watch(sim::seconds(30.0));
  for (net::ClusterId other : {0, 1}) {
    fd->set_partition_active(2, other, true);
    fd->set_partition_active(other, 2, true);
  }
  for (int i = 0; i < 20; ++i) proxy.send<&Poke::add>(Index(4), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (net::ClusterId other : {0, 1}) {
    fd->set_partition_active(2, other, false);
    fd->set_partition_active(other, 2, false);
  }
  rt.run();

  EXPECT_EQ(proxy.local(Index(4))->value, 20);
  EXPECT_GT(fd->counters().partition_dropped, 0u);
  EXPECT_EQ(tm->reliability().reliable->counters().flows_abandoned, 0u);
  EXPECT_EQ(hb->counters().peers_declared_dead, 0u);
  EXPECT_EQ(tm->parked_envelopes(), 0u);
  EXPECT_EQ(tm->pes_killed(), 0u);
}

TEST(ChaosThread, QuarantineParksSendersAndFlushesExactlyOnceOnHeal) {
  // Backpressure on real threads: node 4's cluster is cut off and
  // suspected, so its quarantine buffer (4 frames) fills and the machine
  // parks the rest of a 40-message burst. The heal must flush every
  // parked envelope back onto the wire, each delivered exactly once.
  grid::Scenario s = grid::Scenario::artificial(5, sim::milliseconds(1.0))
                         .with_clusters(3)
                         .with_crashes();
  s.heartbeat.period = sim::milliseconds(10.0);
  s.heartbeat.timeout = sim::milliseconds(60.0);
  s.heartbeat.confirm_window = sim::seconds(30.0);  // never confirms here
  s.reliable.give_up_budget = sim::seconds(60.0);
  s.reliable.quarantine_max_frames = 4;
  core::MachineOptions cfg;
  cfg.emulate_charge = false;
  Runtime rt(grid::make_machine(s, grid::Backend::kThread, cfg));
  auto proxy = rt.create_array<Poke>(
      "pokes", core::indices_1d(5), core::round_robin_map(5),
      [](const Index&) { return std::make_unique<Poke>(); });
  core::Machine& m = rt.machine();
  net::FaultDevice* fd = m.reliability().faults;
  net::ReliableDevice* rel = m.reliability().reliable;
  ASSERT_NE(m.reliability().heartbeat, nullptr);

  m.reliability().heartbeat->watch(sim::seconds(60.0));
  for (net::ClusterId other : {0, 1}) {
    fd->set_partition_active(2, other, true);
    fd->set_partition_active(other, 2, true);
  }
  ASSERT_TRUE(probe::eventually_on_machine_loop(
      m, [rel] { return rel->peer_quarantined(4); }, std::chrono::seconds(10)));
  for (int i = 0; i < 40; ++i) proxy.send<&Poke::add>(Index(4), 1);
  const std::size_t parked_mid_outage = m.parked_envelopes();
  for (net::ClusterId other : {0, 1}) {
    fd->set_partition_active(2, other, false);
    fd->set_partition_active(other, 2, false);
  }
  rt.run();

  EXPECT_GT(parked_mid_outage, 0u);
  EXPECT_EQ(proxy.local(Index(4))->value, 40);
  EXPECT_EQ(m.parked_envelopes(), 0u);
  // Snapshot on the fabric thread: the detector is still beating there.
  const obs::Snapshot snap =
      probe::on_machine_loop(m, [&m] { return m.metrics().snapshot(); });
  EXPECT_GT(snap.counter("rt.sched.stall_parked"), 0u);
  EXPECT_EQ(snap.counter("rt.sched.stall_resumed"),
            snap.counter("rt.sched.stall_parked"));
  EXPECT_EQ(snap.counter("net.reliable.flows_abandoned"), 0u);
  EXPECT_EQ(snap.counter("net.heartbeat.peers_declared_dead"), 0u);
}

}  // namespace
