// Grid scenarios end-to-end: the artificial-latency environment, the
// TeraGrid-like real environment, timeline tracing (Figure 2), and the
// priority/GridCommLB future-work features acting together.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "apps/stencil/stencil.hpp"
#include "core/mapping.hpp"
#include "core/tree.hpp"
#include "grid/scenario.hpp"
#include "ldb/balancers.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace mdo;
using apps::stencil::Params;
using apps::stencil::StencilApp;
using core::Runtime;

TEST(Scenario, ArtificialUsesDelayDeviceOverSanLinks) {
  auto owned = grid::make_machine(
      grid::Scenario::artificial(4, sim::milliseconds(16.0)));
  auto* machine = static_cast<core::SimMachine*>(owned.get());
  // Direct probe of the model: inter-cluster base must be SAN-class.
  EXPECT_EQ(machine->model().config().inter.latency, grid::kSanLatency);
  EXPECT_FALSE(machine->model().config().wan_contention);
  EXPECT_EQ(machine->fabric().chain().size(), 1u);  // the delay device
}

TEST(Scenario, RealGridUsesWanModelWithoutDelayDevice) {
  auto owned = grid::make_machine(grid::Scenario::real_grid(4));
  auto* machine = static_cast<core::SimMachine*>(owned.get());
  EXPECT_EQ(machine->model().config().inter.latency, grid::kWanLatency);
  EXPECT_TRUE(machine->model().config().wan_contention);
  EXPECT_GT(machine->model().config().wan_jitter_fraction, 0.0);
  EXPECT_TRUE(machine->fabric().chain().empty());
}

TEST(Scenario, LocalHasSingleCluster) {
  auto machine = grid::make_machine(grid::Scenario::local(4));
  EXPECT_EQ(machine->topology().num_clusters(), 1u);
}

TEST(Scenario, ArtificialLatencyPredictsRealGrid) {
  // The validation logic of Tables 1 and 2: running under the delay
  // device at the matching latency approximates the real-WAN model.
  auto run = [](grid::Scenario scenario) {
    Runtime rt(grid::make_machine(scenario));
    Params p;
    p.mesh = 2048;
    p.objects = 64;
    StencilApp app(rt, p);
    app.run_steps(2);
    return app.run_steps(8).ms_per_step;
  };
  double artificial = run(
      grid::Scenario::artificial(8, grid::kArtificialMatchingWan));
  double real = run(grid::Scenario::real_grid(8));
  EXPECT_NEAR(real / artificial, 1.0, 0.15)
      << "artificial=" << artificial << " real=" << real;
}

TEST(Timeline, TraceShowsOverlapOfComputeWithWanWait) {
  // Figure 2 in miniature: while a WAN round-trip is in flight, the
  // sending PE keeps executing other objects' entries.
  grid::Scenario scenario =
      grid::Scenario::artificial(2, sim::milliseconds(10.0)).with_tracing();
  Runtime rt(grid::make_machine(scenario));
  Params p;
  p.mesh = 1024;
  p.objects = 64;  // 32 objects per PE
  StencilApp app(rt, p);
  app.run_steps(4);

  auto trace = rt.machine().trace();
  ASSERT_FALSE(trace.empty());
  // Find a WAN gap: PE0 sends at some entry end, and the matching ghost
  // returns >= 10 ms later; count PE0 entry executions inside that gap.
  sim::TimeNs gap_begin = 0, gap_end = 0;
  for (const auto& ev : trace) {
    if (ev.pe == 0 && ev.src_pe == 1) {  // a message from the remote cluster
      gap_end = ev.begin;
      break;
    }
  }
  ASSERT_GT(gap_end, sim::milliseconds(10.0));
  int executed_during_gap = 0;
  for (const auto& ev : trace) {
    if (ev.pe == 0 && ev.begin >= gap_begin && ev.end <= gap_end)
      ++executed_during_gap;
  }
  EXPECT_GT(executed_during_gap, 5)
      << "PE0 should stay busy while the WAN message is in flight";
}

TEST(Priorities, WanPriorityHelpsUnderLoad) {
  // Ablation A sanity: prioritizing cross-cluster ghosts must never be
  // slower than FIFO on a WAN-bound configuration (often slightly faster).
  auto run = [](core::Priority wan_priority) {
    Runtime rt(grid::make_machine(
        grid::Scenario::artificial(8, sim::milliseconds(8.0))));
    Params p;
    p.mesh = 2048;
    p.objects = 256;
    p.wan_priority = wan_priority;
    StencilApp app(rt, p);
    app.run_steps(2);
    return app.run_steps(10).ms_per_step;
  };
  double fifo = run(0);
  double prioritized = run(-1);
  EXPECT_LE(prioritized, fifo * 1.02);
}

TEST(GridLb, RebalanceAfterSkewImprovesStepTime) {
  // Create imbalance by piling one PE's chunks onto another inside
  // cluster A, then let GridCommLB repair it.
  Runtime rt(grid::make_machine(
      grid::Scenario::artificial(4, sim::milliseconds(2.0))));
  Params p;
  p.mesh = 1024;
  p.objects = 64;
  StencilApp app(rt, p);
  app.run_steps(2);

  // Sabotage: move every chunk on PE1 to PE0 (both in cluster A).
  auto snap = ldb::collect(rt);
  for (const auto& obj : snap.objects)
    if (obj.pe == 1) rt.migrate(obj.array, obj.index, 0);
  double skewed = app.run_steps(6).ms_per_step;

  ldb::GridCommLb lb;
  ldb::rebalance(rt, lb);
  double repaired = app.run_steps(6).ms_per_step;
  EXPECT_LT(repaired, skewed * 0.8);
}

// ---------------------------------------------------------------------------
// N-cluster hierarchical grids: the scenario spread across 4/8 WAN sites,
// the topology-aware collective trees cutting WAN crossings end to end,
// deterministic replay of the full fault/coalescing stack at 8 clusters,
// and SimMachine/ThreadMachine agreement on the observable counters.

/// Sum-reduction fixture for collective round-trips. Contributions are
/// small integers (exact in binary), so the reduced value is independent
/// of combining order and can be compared bitwise across backends.
struct Summer : core::Chare {
  core::ReductionClientId client = -1;
  void go() {
    runtime().contribute(*this, {double(index().x + 1)},
                         core::ReduceOp::kSum, client);
  }
  void pup(Pup& p) override { Chare::pup(p); }
};

/// WAN wire frames for `rounds` broadcast+reduction round trips over
/// `pes` PEs spread across `n_clusters` sites, under the given tree mode.
std::uint64_t collective_wan_frames(std::size_t pes, std::size_t n_clusters,
                                    core::TreeMode mode, int rounds,
                                    double* sum_out = nullptr) {
  grid::Scenario s = grid::Scenario::artificial(pes, sim::milliseconds(2.0))
                         .with_clusters(n_clusters);
  Runtime rt(grid::make_machine(s));
  rt.set_collective_mode(mode);
  auto proxy = rt.create_array<Summer>(
      "sum", core::indices_1d(pes), core::block_map_1d(pes, pes),
      [](const core::Index&) { return std::make_unique<Summer>(); });
  double sum = 0.0;
  auto client = proxy.reduction_client(
      [&](const std::vector<double>& d) { sum = d.at(0); });
  for (std::size_t i = 0; i < pes; ++i)
    proxy.local(core::Index(static_cast<std::int32_t>(i)))->client = client;
  const obs::Snapshot before = rt.machine().metrics().snapshot();
  for (int r = 0; r < rounds; ++r) {
    proxy.broadcast<&Summer::go>();
    rt.run();
  }
  if (sum_out != nullptr) *sum_out = sum;
  return rt.machine().metrics().snapshot().diff(before).counter(
      "fabric.wan_wire_frames");
}

TEST(NCluster, HierarchicalTreesCutWanFramesAndWinGrowsWithClusters) {
  // The tentpole claim, end to end: a topology-aware tree crosses the
  // WAN once per destination cluster, so broadcast+reduction traffic
  // drops versus a flat tree — and at a fixed per-site allocation
  // (4 PEs per cluster) the saving widens from 4 to 8 sites.
  const int rounds = 8;
  std::uint64_t flat4 =
      collective_wan_frames(16, 4, core::TreeMode::kFlat, rounds);
  std::uint64_t hier4 =
      collective_wan_frames(16, 4, core::TreeMode::kHierarchical, rounds);
  std::uint64_t flat8 =
      collective_wan_frames(32, 8, core::TreeMode::kFlat, rounds);
  std::uint64_t hier8 =
      collective_wan_frames(32, 8, core::TreeMode::kHierarchical, rounds);
  EXPECT_LT(hier4, flat4);
  EXPECT_LT(hier8, flat8);
  EXPECT_GT(flat8 - hier8, flat4 - hier4)
      << "flat4=" << flat4 << " hier4=" << hier4 << " flat8=" << flat8
      << " hier8=" << hier8;
  // Hierarchical floor: one WAN frame per remote cluster per direction.
  EXPECT_GE(hier8, static_cast<std::uint64_t>(rounds) * 2 * 7);
}

TEST(NCluster, EightClusterLossyCrashyCoalescedReplayIsBitIdentical) {
  // The whole stack at 8 sites — per-pair delays, loss, the failure
  // detector, coalescing — must still be a deterministic function of the
  // seed on the virtual-time machine.
  auto run_once = [] {
    grid::Scenario s = grid::Scenario::artificial(16, sim::milliseconds(2.0))
                           .with_clusters(8)
                           .with_loss(/*drop=*/0.02, /*seed=*/7)
                           .with_crashes()
                           .with_coalescing();
    auto machine = grid::make_machine(s);
    auto* raw = static_cast<core::SimMachine*>(machine.get());
    Runtime rt(std::move(machine));
    Params p;
    p.mesh = 64;
    p.objects = 16;
    StencilApp app(rt, p);
    app.run_steps(6);
    return std::make_pair(raw->metrics().snapshot(), rt.now());
  };
  auto [snap_a, end_a] = run_once();
  auto [snap_b, end_b] = run_once();
  EXPECT_EQ(snap_a, snap_b);
  EXPECT_EQ(end_a, end_b);
  EXPECT_GT(snap_a.counter("net.fault.dropped"), 0u);
}

TEST(NCluster, BackendsAgreeOnWanFramesAndReductionResults) {
  // SimMachine and ThreadMachine run the same device chain over the same
  // 8-cluster link table; with no randomized devices installed the WAN
  // frame count and the reduced values are backend-independent.
  const int rounds = 4;
  auto run_thread = [&](double* sum_out) {
    grid::Scenario s = grid::Scenario::artificial(16, sim::microseconds(200.0))
                           .with_clusters(8);
    core::MachineOptions cfg;
    cfg.emulate_charge = false;
    Runtime rt(grid::make_machine(s, grid::Backend::kThread, cfg));
    auto proxy = rt.create_array<Summer>(
        "sum", core::indices_1d(16), core::block_map_1d(16, 16),
        [](const core::Index&) { return std::make_unique<Summer>(); });
    std::atomic<double> sum{0.0};
    auto client = proxy.reduction_client(
        [&](const std::vector<double>& d) { sum.store(d.at(0)); });
    for (std::int32_t i = 0; i < 16; ++i)
      proxy.local(core::Index(i))->client = client;
    const obs::Snapshot before = rt.machine().metrics().snapshot();
    for (int r = 0; r < rounds; ++r) {
      proxy.broadcast<&Summer::go>();
      rt.run();
    }
    *sum_out = sum.load();
    return rt.machine().metrics().snapshot().diff(before).counter(
        "fabric.wan_wire_frames");
  };
  double sim_sum = 0.0, thread_sum = 0.0;
  std::uint64_t sim_frames = collective_wan_frames(
      16, 8, core::TreeMode::kHierarchical, rounds, &sim_sum);
  std::uint64_t thread_frames = run_thread(&thread_sum);
  EXPECT_EQ(sim_frames, thread_frames);
  EXPECT_EQ(sim_sum, thread_sum);
  EXPECT_DOUBLE_EQ(sim_sum, 16.0 * 17.0 / 2.0);  // sum of 1..16
}

TEST(ThreadBackend, ScenarioBuilderWorksWithRealThreads) {
  core::MachineOptions cfg;
  cfg.emulate_charge = false;
  Runtime rt(grid::make_machine(
      grid::Scenario::artificial(2, sim::milliseconds(5.0)),
      grid::Backend::kThread, cfg));
  Params p;
  p.mesh = 64;
  p.objects = 16;
  p.real_compute = true;
  p.modeled_charge = false;
  StencilApp app(rt, p);
  app.run_steps(4);
  auto mesh = app.gather_mesh();
  auto ref = apps::stencil::sequential_reference(p, 4);
  for (std::size_t i = 0; i < mesh.size(); ++i) ASSERT_NEAR(mesh[i], ref[i], 1e-12);
}

}  // namespace
