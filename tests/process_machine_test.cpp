// ProcessMachine end to end: forked OS processes exchanging envelopes
// over Unix-domain stream sockets must run the same applications as the
// in-process machines — same message counts as the virtual-time
// simulator, exactly-once delivery when the WAN drops frames, and
// genuine SIGKILL crash-recovery through the heartbeat detector and
// buddy checkpoints. Labeled `process`: each test forks a 4-PE mesh.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "apps/stencil/stencil.hpp"
#include "core/array.hpp"
#include "core/fault_tolerance.hpp"
#include "core/mapping.hpp"
#include "core/process_machine.hpp"
#include "core/runtime.hpp"
#include "grid/scenario.hpp"
#include "ldb/balancers.hpp"
#include "machine_probe.hpp"

namespace {

using namespace mdo;
using apps::stencil::Params;
using apps::stencil::StencilApp;
using core::FaultTolerance;
using core::Index;
using core::Pe;
using core::Runtime;

Params stencil_params() {
  Params p;
  p.mesh = 16;
  p.objects = 16;
  p.real_compute = true;     // genuine Jacobi arithmetic, checkable result
  p.modeled_charge = false;  // wall-clock backends: no modeled busy time
  return p;
}

core::MachineOptions wall_clock_options() {
  core::MachineOptions cfg;
  cfg.emulate_charge = false;
  // A wedged mesh should fail the test, not stall CI until ctest's
  // timeout: abort run() well inside the test binary's own budget.
  cfg.process_run_watchdog = sim::seconds(60.0);
  return cfg;
}

/// Runs `steps` stencil steps on `backend`; returns the final mesh, the
/// mesh-wide executed-message counter and the fabric counters.
struct StencilOutcome {
  std::vector<double> mesh;
  std::uint64_t msgs_executed = 0;
  net::Fabric::Stats fabric;
};

StencilOutcome run_stencil(const grid::Scenario& s, grid::Backend backend,
                           int steps) {
  Runtime rt(grid::make_machine(s, backend, wall_clock_options()));
  StencilApp app(rt, stencil_params());
  app.run_steps(steps);
  StencilOutcome out;
  out.mesh = app.gather_mesh();
  out.msgs_executed =
      rt.machine().metrics().snapshot().counter("rt.sched.msgs_executed");
  out.fabric = rt.machine().fabric_stats();
  return out;
}

TEST(ProcessMachine, StencilAcrossForkedPesMatchesSimBackend) {
  // The acceptance bar for the backend: a 16-object stencil on 4 forked
  // processes over UDS computes the same mesh as the sequential
  // reference AND executes the same number of messages as the
  // virtual-time simulator — the socket fabric neither loses, splits,
  // nor duplicates application traffic. Its packets carry the same
  // envelope wire image as the simulator's, byte for byte.
  grid::Scenario s = grid::Scenario::artificial(4, sim::milliseconds(1.0));
  const int kSteps = 4;
  StencilOutcome proc = run_stencil(s, grid::Backend::kProcess, kSteps);
  StencilOutcome sim = run_stencil(s, grid::Backend::kSim, kSteps);

  std::vector<double> ref =
      apps::stencil::sequential_reference(stencil_params(), kSteps);
  ASSERT_EQ(proc.mesh.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(proc.mesh[i], ref[i], 1e-12) << "cell " << i;
  }
  EXPECT_EQ(proc.msgs_executed, sim.msgs_executed);
  EXPECT_EQ(proc.fabric.packets_sent, sim.fabric.packets_sent);
  EXPECT_EQ(proc.fabric.bytes_sent, sim.fabric.bytes_sent);
}

TEST(ProcessMachine, ExactlyOnceDeliveryUnderWanLoss) {
  // with_loss drops 5% of WAN frames inside each process's device
  // chain; the reliability stack must retransmit across the real
  // sockets until everything lands exactly once. The retransmit counter
  // is read on PE 0 — nonzero proves both the recovery path and the
  // cross-process metric aggregation over the control plane.
  grid::Scenario s =
      grid::Scenario::artificial(4, sim::milliseconds(1.0)).with_loss(0.05, 7);
  const int kSteps = 4;
  Runtime rt(
      grid::make_machine(s, grid::Backend::kProcess, wall_clock_options()));
  StencilApp app(rt, stencil_params());
  app.run_steps(kSteps);
  std::vector<double> mesh = app.gather_mesh();

  std::vector<double> ref =
      apps::stencil::sequential_reference(stencil_params(), kSteps);
  ASSERT_EQ(mesh.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(mesh[i], ref[i], 1e-12) << "cell " << i;
  }
  auto snap = rt.machine().metrics().snapshot();
  EXPECT_GT(snap.counter("net.reliable.retransmits"), 0u)
      << "5% loss over 4 steps must force at least one retransmission";
}

TEST(ProcessMachine, SigkilledPeIsDetectedAndRecoveredFromBuddyCheckpoint) {
  // The real thing the backend exists to exercise: kill_pe(1) delivers
  // an actual SIGKILL to a forked child. The heartbeat detector inside
  // each surviving process must notice the silence, the parent reaps
  // the corpse, and FaultTolerance restores PE 1's elements from buddy
  // checkpoints — after which the stencil finishes with the exact
  // sequential answer.
  grid::Scenario s =
      grid::Scenario::artificial(4, sim::milliseconds(1.0)).with_crashes();
  // Real-time detector cadence: generous timeout so a loaded CI host
  // never misreads a live (but descheduled) worker as dead.
  s.heartbeat.period = sim::milliseconds(20.0);
  s.heartbeat.timeout = sim::milliseconds(250.0);
  auto machine =
      grid::make_machine(s, grid::Backend::kProcess, wall_clock_options());
  auto* pm = static_cast<core::ProcessMachine*>(machine.get());
  Runtime rt(std::move(machine));
  core::FtConfig ft_cfg;
  ft_cfg.charge_checkpoint_time = false;
  FaultTolerance ft(rt, pm->reliability(), ft_cfg);
  ft.set_placement(ldb::recovery_placer(rt));

  Params p = stencil_params();
  StencilApp app(rt, p);

  app.run_steps(2);
  ft.checkpoint();
  ft.watch(sim::seconds(30.0));
  pm->kill_pe(1);
  // The phase must drain rather than deadlock: frames bound for the
  // dead process are dropped and accounted at their senders, survivors
  // go idle waiting for ghosts that will never arrive.
  app.run_steps(2);
  EXPECT_EQ(pm->pes_killed(), 1u);

  // Detection is asynchronous (real-time heartbeats inside the
  // surviving processes); wait bounded.
  for (int i = 0; i < 500 && !ft.failure_detected(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(ft.failure_detected());
  core::RecoveryReport report = ft.recover();
  ASSERT_EQ(report.dead, std::vector<Pe>{1});
  EXPECT_GT(report.elements_restored, 0u);

  app.run_steps(2);
  std::vector<double> mesh = app.gather_mesh();
  std::vector<double> ref = apps::stencil::sequential_reference(p, 4);
  ASSERT_EQ(mesh.size(), ref.size());
  for (std::size_t i = 0; i < mesh.size(); ++i) {
    ASSERT_NEAR(mesh[i], ref[i], 1e-12) << "cell " << i;
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

TEST(ProcessMachine, QuarantineBackpressureParksAndFlushesExactlyOnce) {
  // Quarantine backpressure across processes. A scheduled partition cuts
  // node 4's cluster off in every process's fault device; the parent
  // suspects node 4, its quarantine buffer (4 frames) fills, and the
  // parent parks the rest of a 40-message burst. When the window closes
  // the heal must flush every parked envelope, each delivered exactly
  // once to the child that hosts node 4's element.
  const sim::TimeNs kOutage = sim::seconds(3.0);
  grid::Scenario s = grid::Scenario::artificial(5, sim::milliseconds(1.0))
                         .with_clusters(3)
                         .with_crashes();
  s.heartbeat.period = sim::milliseconds(10.0);
  s.heartbeat.timeout = sim::milliseconds(60.0);
  s.heartbeat.confirm_window = sim::seconds(30.0);  // never confirms here
  s.reliable.give_up_budget = sim::seconds(60.0);
  s.reliable.quarantine_max_frames = 4;
  for (net::ClusterId other : {0, 1}) {
    s.with_partition(2, other, 0, kOutage);
    s.with_partition(other, 2, 0, kOutage);
  }
  Runtime rt(
      grid::make_machine(s, grid::Backend::kProcess, wall_clock_options()));
  auto proxy = rt.create_array<Poke>(
      "pokes", core::indices_1d(5), core::round_robin_map(5),
      [](const Index&) { return std::make_unique<Poke>(); });
  core::Machine& m = rt.machine();
  net::ReliableDevice* rel = m.reliability().reliable;
  // Armed before the fork, so every process replays the watch.
  m.reliability().heartbeat->watch(sim::seconds(60.0));
  rt.run();  // forks the mesh

  ASSERT_TRUE(probe::eventually_on_machine_loop(
      m, [rel] { return rel->peer_quarantined(4); }, std::chrono::seconds(10)));
  for (int i = 0; i < 40; ++i) proxy.send<&Poke::add>(Index(4), 1);
  const std::size_t parked_mid_outage = m.parked_envelopes();
  ASSERT_LT(m.now(), kOutage) << "the burst must land inside the outage";
  rt.run();

  EXPECT_GT(parked_mid_outage, 0u);
  EXPECT_EQ(proxy.local(Index(4))->value, 40);
  EXPECT_EQ(m.parked_envelopes(), 0u);
  const obs::Snapshot snap = m.metrics().snapshot();
  EXPECT_GT(snap.counter("rt.sched.stall_parked"), 0u);
  EXPECT_EQ(snap.counter("rt.sched.stall_resumed"),
            snap.counter("rt.sched.stall_parked"));
  EXPECT_EQ(snap.counter("net.reliable.flows_abandoned"), 0u);
  EXPECT_EQ(snap.counter("net.heartbeat.peers_declared_dead"), 0u);
}

}  // namespace
