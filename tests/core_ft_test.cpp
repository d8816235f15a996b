// Node-crash fault tolerance end to end: buddy in-memory checkpoints,
// detector-driven recovery, determinism of the recovered computation on
// the virtual-time machine, survival of a killed PE on the real-threads
// machine, and checkpoint round-trips under a lossy WAN.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/stencil/stencil.hpp"
#include "core/checkpoint.hpp"
#include "core/fault_tolerance.hpp"
#include "core/mapping.hpp"
#include "grid/scenario.hpp"
#include "ldb/balancers.hpp"

namespace {

using namespace mdo;
using apps::stencil::Params;
using apps::stencil::StencilApp;
using core::FaultTolerance;
using core::Index;
using core::Pe;
using core::Runtime;

struct Cell : core::Chare {
  std::int64_t value = 0;
  void add(std::int64_t by) { value += by; }
  void pup(Pup& p) override {
    Chare::pup(p);
    p | value;
  }
};

struct FtHarness {
  explicit FtHarness(grid::Scenario s)
      : machine_(grid::make_machine(s)),
        sim(static_cast<core::SimMachine*>(machine_.get())),
        rt(std::move(machine_)),
        ft(rt, sim->reliability()) {
    cells = rt.create_array<Cell>(
        "cells", core::indices_1d(8), core::round_robin_map(4),
        [](const Index& i) {
          auto c = std::make_unique<Cell>();
          c->value = i.x * 10;
          return c;
        });
  }

  std::unique_ptr<core::Machine> machine_;
  core::SimMachine* sim;
  Runtime rt;
  FaultTolerance ft;
  core::ArrayProxy<Cell> cells;
};

TEST(FaultToleranceSim, RecoverRestoresLostElementsOntoSurvivors) {
  FtHarness h(grid::Scenario::artificial(4, sim::milliseconds(2.0)).with_crashes());
  h.ft.checkpoint();
  EXPECT_EQ(h.ft.checkpoints_taken(), 1u);
  EXPECT_GT(h.ft.checkpoint_bytes(), 0u);

  h.sim->kill_pe(3, sim::milliseconds(5.0));
  h.ft.watch(sim::milliseconds(100.0));
  h.rt.run();

  ASSERT_TRUE(h.ft.failure_detected());
  EXPECT_EQ(h.ft.detected_dead(), std::vector<Pe>{3});
  core::RecoveryReport report = h.ft.recover();
  ASSERT_EQ(report.dead, std::vector<Pe>{3});
  // round_robin over 4 PEs: indices 3 and 7 lived on the dead PE.
  EXPECT_EQ(report.elements_restored, 2u);
  EXPECT_EQ(report.elements_rolled_back, 6u);
  EXPECT_GT(report.restored_bytes, 0u);
  EXPECT_GE(report.detected_at, sim::milliseconds(5.0));
  EXPECT_GE(report.recovered_at, report.detected_at);
  // Recovery re-checkpoints immediately so a second crash cannot roll
  // back past this point.
  EXPECT_EQ(h.ft.checkpoints_taken(), 2u);

  for (int i = 0; i < 8; ++i) {
    Pe pe = h.rt.array(h.cells.id()).location(Index(i));
    EXPECT_NE(pe, 3) << "element " << i << " left on the dead PE";
    // Default placement walks the ring inside the home cluster: the dead
    // PE 3's elements belong to cluster B = {2, 3}, so they land on 2.
    if (i % 4 == 3) {
      EXPECT_EQ(pe, 2);
    }
    EXPECT_EQ(h.cells.local(Index(i))->value, i * 10);
  }

  // The recovered array is live: messages reach the restored elements.
  for (int i = 0; i < 8; ++i) h.cells.send<&Cell::add>(Index(i), 1);
  h.rt.run();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(h.cells.local(Index(i))->value, i * 10 + 1);
  }
}

TEST(FaultToleranceSim, RecoverWithoutCheckpointDies) {
  FtHarness h(grid::Scenario::artificial(4, sim::milliseconds(2.0)).with_crashes());
  EXPECT_DEATH(h.ft.recover(), "without a prior checkpoint");
}

TEST(FaultToleranceSim, CheckpointWithUnrecoveredDeadPeDies) {
  FtHarness h(grid::Scenario::artificial(4, sim::milliseconds(2.0)).with_crashes());
  h.ft.checkpoint();
  h.sim->kill_pe(3, sim::milliseconds(5.0));
  h.ft.watch(sim::milliseconds(100.0));
  h.rt.run();
  EXPECT_DEATH(h.ft.checkpoint(), "recover first");
}

TEST(FaultToleranceSim, OwnerAndBuddyDyingTogetherIsUnrecoverable) {
  // two_cluster(4): cluster B = {2, 3}. PE 2's buddy is PE 3, so wiping
  // the whole cluster loses both copies of PE 2's elements.
  FtHarness h(grid::Scenario::artificial(4, sim::milliseconds(2.0)).with_crashes());
  h.ft.checkpoint();
  h.sim->kill_pe(2, sim::milliseconds(5.0));
  h.sim->kill_pe(3, sim::milliseconds(6.0));
  h.ft.watch(sim::milliseconds(200.0));
  h.rt.run();
  ASSERT_TRUE(h.ft.failure_detected());
  EXPECT_DEATH(h.ft.recover(), "unrecoverable");
}

/// Drives one full stencil run under a crash-tolerant scenario, killing
/// PE 2 at a fixed virtual time, recovering, and re-running the disturbed
/// phase. Returns the final mesh after exactly `phases * steps_per_phase`
/// effective Jacobi steps.
std::vector<double> run_stencil_with_ft(const Params& p, bool crash,
                                        int phases, int steps_per_phase,
                                        core::RecoveryReport* out_report) {
  grid::Scenario s = grid::Scenario::artificial(4, sim::milliseconds(8.0)).with_crashes();
  auto machine = grid::make_machine(s);
  auto* sim = static_cast<core::SimMachine*>(machine.get());
  Runtime rt(std::move(machine));
  FaultTolerance ft(rt, sim->reliability());
  ft.set_placement(ldb::recovery_placer(rt));
  StencilApp app(rt, p);
  // Mid-phase kill: 20 ms into the first phase the ghost exchange is in
  // full flight (cross-cluster ghosts pay 8 ms one-way), so the crash
  // drops in-flight traffic and leaves survivors stalled mid-step. The
  // kill must land inside a watch window: the DES drains each phase to
  // its horizon, and a kill scheduled past every horizon would fire
  // between phases, after the detector has quiesced.
  const sim::TimeNs t_kill = sim::milliseconds(20.0);
  if (crash) sim->kill_pe(2, t_kill);

  bool recovered = false;
  for (int phase = 0; phase < phases; ++phase) {
    ft.checkpoint();
    ft.watch(sim::milliseconds(300.0));
    app.run_steps(steps_per_phase);
    if (ft.failure_detected()) {
      EXPECT_FALSE(recovered) << "a single kill must be detected once";
      core::RecoveryReport report = ft.recover();
      EXPECT_EQ(report.dead, std::vector<Pe>{2});
      EXPECT_GT(report.elements_restored, 0u);
      if (out_report != nullptr) *out_report = report;
      recovered = true;
      // The phase's results (complete or not) were rolled back with the
      // rest of the cut; re-issue it from the restored step count.
      app.run_steps(steps_per_phase);
    }
  }
  EXPECT_EQ(recovered, crash);
  return app.gather_mesh();
}

TEST(FaultToleranceSim, CrashRecoveryIsBitIdenticalToCrashFreeRun) {
  Params p;
  p.mesh = 24;
  p.objects = 16;
  p.real_compute = true;

  core::RecoveryReport report;
  std::vector<double> with_crash = run_stencil_with_ft(p, true, 4, 3, &report);
  std::vector<double> crash_free = run_stencil_with_ft(p, false, 4, 3, nullptr);

  ASSERT_EQ(with_crash.size(), crash_free.size());
  for (std::size_t i = 0; i < with_crash.size(); ++i) {
    // Bit-identical, not merely close: recovery replays the same
    // arithmetic from the same checkpoint state.
    ASSERT_EQ(with_crash[i], crash_free[i]) << "cell " << i;
  }
  // And both match the sequential reference of 4 × 3 steps.
  std::vector<double> ref = apps::stencil::sequential_reference(p, 12);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(with_crash[i], ref[i], 1e-12);
  }
  EXPECT_GE(report.detected_at, sim::milliseconds(20.0));
  EXPECT_GT(report.recovered_at, report.detected_at);
}

TEST(FaultToleranceThread, StencilSurvivesKilledPe) {
  grid::Scenario s = grid::Scenario::artificial(4, sim::milliseconds(1.0)).with_crashes();
  // Real-time detector cadence: generous timeout so a loaded CI host
  // never misreads a live (but descheduled) worker as dead.
  s.heartbeat.period = sim::milliseconds(20.0);
  s.heartbeat.timeout = sim::milliseconds(250.0);
  core::MachineOptions cfg;
  cfg.emulate_charge = false;
  auto machine = grid::make_machine(s, grid::Backend::kThread, cfg);
  auto* tm = static_cast<core::ThreadMachine*>(machine.get());
  Runtime rt(std::move(machine));
  FaultTolerance ft(rt, tm->reliability());
  ft.set_placement(ldb::recovery_placer(rt));

  Params p;
  p.mesh = 16;
  p.objects = 16;
  p.real_compute = true;
  p.modeled_charge = false;
  StencilApp app(rt, p);

  app.run_steps(2);
  ft.checkpoint();
  ft.watch(sim::seconds(30.0));
  tm->kill_pe(1);
  // The phase must drain rather than deadlock: traffic to the dead PE is
  // dropped and accounted, survivors go idle waiting for ghosts.
  app.run_steps(2);
  EXPECT_EQ(tm->pes_killed(), 1u);
  EXPECT_GE(rt.machine().pe_stats(1).msgs_dropped, 1u);

  // Detection is asynchronous (real-time heartbeats); wait bounded.
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

std::string temp_path(const std::string& stem) {
  return std::string(::testing::TempDir()) + "/" + stem + ".ckpt";
}

TEST(CheckpointUnderLoss, SimRoundTripAcrossMigrationIsExact) {
  // Satellite: checkpoint → migrate → restore round-trip while the WAN
  // is dropping frames. The checkpoint is cut at a quiescent point, so
  // in-flight retransmission state never leaks into the file; restoring
  // and re-running must reproduce the post-migration run bit for bit.
  Params p;
  p.mesh = 24;
  p.objects = 16;
  p.real_compute = true;
  grid::Scenario s = grid::Scenario::artificial(4, sim::milliseconds(4.0)).with_loss(0.02, 7);

  Runtime rt(grid::make_machine(s));
  StencilApp app(rt, p);
  app.run_steps(3);
  std::string path = temp_path("lossy_roundtrip");
  core::save_checkpoint(rt, path);

  // Disturb placement maximally, then run on.
  ldb::RotateLb rotate;
  ldb::rebalance(rt, rotate);
  app.run_steps(3);
  std::vector<double> first = app.gather_mesh();

  // Rewind to the checkpoint (placement and step counts restore too),
  // repeat the migration-free continuation: same values.
  core::load_checkpoint(rt, path);
  app.run_steps(3);
  std::vector<double> second = app.gather_mesh();

  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i], second[i]) << "cell " << i;
  }
  std::vector<double> ref = apps::stencil::sequential_reference(p, 6);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(second[i], ref[i], 1e-12);
  }
  std::remove(path.c_str());
}

TEST(CheckpointUnderLoss, ThreadRoundTripMatchesReference) {
  Params p;
  p.mesh = 16;
  p.objects = 16;
  p.real_compute = true;
  p.modeled_charge = false;
  grid::Scenario s = grid::Scenario::artificial(4, sim::milliseconds(1.0)).with_loss(0.02, 9);
  core::MachineOptions cfg;
  cfg.emulate_charge = false;

  Runtime rt(grid::make_machine(s, grid::Backend::kThread, cfg));
  StencilApp app(rt, p);
  app.run_steps(2);
  std::string path = temp_path("lossy_thread_roundtrip");
  core::save_checkpoint(rt, path);
  app.run_steps(2);

  core::load_checkpoint(rt, path);
  app.run_steps(2);
  std::vector<double> mesh = app.gather_mesh();
  std::vector<double> ref = apps::stencil::sequential_reference(p, 4);
  ASSERT_EQ(mesh.size(), ref.size());
  for (std::size_t i = 0; i < mesh.size(); ++i) {
    ASSERT_NEAR(mesh[i], ref[i], 1e-12) << "cell " << i;
  }
  std::remove(path.c_str());
}

}  // namespace
