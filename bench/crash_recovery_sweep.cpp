// Crash-recovery sweep: the cost of surviving a node death, across WAN
// latencies and checkpoint periods. Three runs per configuration on the
// same crashy scenario (reliability stack + heartbeat detector):
//
//   A  baseline        — no checkpoints, no crash: ms/step of plain work.
//   B  checkpointing   — buddy checkpoint every N steps, no crash: the
//                        forward-progress overhead of the period choice.
//   C  crash + recover — a PE killed mid-run: detection latency (kill ->
//                        declared dead), recovery latency (restore +
//                        rollback + re-checkpoint), and redo time (the
//                        rolled-back phase re-executed).
//
// Run C's total virtual time includes detector watch-window tails (the
// ticker drains to its horizon), so per-step time is only meaningful from
// runs A and B; the crash run reports the recovery-path latencies. The
// final meshes of B and C are checked bit-identical to A: neither
// checkpointing nor crash recovery may perturb the computed values.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/fault_tolerance.hpp"
#include "ldb/balancers.hpp"
#include "util/options.hpp"

using namespace mdo;

namespace {

struct Config {
  std::size_t pes = 8;
  sim::TimeNs one_way = 0;
  std::int32_t total_steps = 20;
  std::int32_t period = 5;  ///< steps between checkpoints
  apps::stencil::Params params;
  std::uint64_t seed = 1;
};

struct SweepRow {
  double base_ms_step = 0.0;
  double ft_ms_step = 0.0;
  double ckpt_cost_ms = 0.0;   ///< one checkpoint, both copies charged
  double ckpt_kb = 0.0;        ///< checkpoint footprint (both copies)
  double detect_ms = 0.0;      ///< kill -> declared dead
  double stall_ms = 0.0;       ///< declared dead -> disturbed phase drained
                               ///< (abandoned-retransmission and detector
                               ///< timers running out)
  double recover_ms = 0.0;     ///< the recover() call itself: restore +
                               ///< rollback + re-checkpoint
  double redo_ms = 0.0;        ///< rolled-back phase re-executed
  bool identical = true;       ///< meshes B and C match A bit for bit
};

grid::Scenario make_scenario(const Config& cfg) {
  return grid::Scenario::artificial(cfg.pes, cfg.one_way)
      .with_loss(/*drop=*/0.0, cfg.seed)
      .with_crashes();
}

/// Run A: plain work on the same stack, no checkpoints, no detector.
std::vector<double> run_baseline(const Config& cfg, double* ms_per_step) {
  core::Runtime rt(grid::make_machine(make_scenario(cfg)));
  apps::stencil::StencilApp app(rt, cfg.params);
  auto phase = app.run_steps(cfg.total_steps);
  *ms_per_step = phase.ms_per_step;
  return app.gather_mesh();
}

/// Run B: checkpoint every cfg.period steps, never crash.
std::vector<double> run_checkpointed(const Config& cfg, SweepRow* row) {
  auto machine = grid::make_machine(make_scenario(cfg));
  auto* sim = static_cast<core::SimMachine*>(machine.get());
  core::Runtime rt(std::move(machine));
  core::FaultTolerance ft(rt, sim->reliability());
  apps::stencil::StencilApp app(rt, cfg.params);

  const sim::TimeNs t0 = rt.now();
  for (std::int32_t done = 0; done < cfg.total_steps; done += cfg.period) {
    ft.checkpoint();
    app.run_steps(cfg.period);
  }
  row->ft_ms_step =
      sim::to_ms(rt.now() - t0) / static_cast<double>(cfg.total_steps);
  row->ckpt_cost_ms = sim::to_ms(ft.last_checkpoint_cost());
  row->ckpt_kb = static_cast<double>(ft.checkpoint_bytes()) / 1024.0;
  return app.gather_mesh();
}

/// Run C: kill one cluster-B PE mid-phase, detect, recover, redo.
std::vector<double> run_crashed(const Config& cfg, double base_phase_ms,
                                SweepRow* row) {
  auto machine = grid::make_machine(make_scenario(cfg));
  auto* sim = static_cast<core::SimMachine*>(machine.get());
  core::Runtime rt(std::move(machine));
  core::FaultTolerance ft(rt, sim->reliability());
  ft.set_placement(ldb::recovery_placer(rt));
  apps::stencil::StencilApp app(rt, cfg.params);

  const grid::Scenario scenario = make_scenario(cfg);
  // Generous per-phase watch horizon: covers the phase's work plus the
  // detector timeout, so a kill landing anywhere in the phase is still
  // declared inside the watched window.
  const sim::TimeNs horizon = sim::milliseconds(2.0 * base_phase_ms + 100.0) +
                              2 * scenario.heartbeat.timeout;
  const auto victim = static_cast<core::Pe>(cfg.pes - 1);

  sim::TimeNs t_kill = 0;
  bool killed = false;
  bool recovered = false;
  for (std::int32_t done = 0; done < cfg.total_steps; done += cfg.period) {
    ft.checkpoint();
    ft.watch(horizon);
    if (!killed) {
      // 30% into the first phase: ghost exchanges are in flight.
      t_kill = rt.now() + sim::milliseconds(0.3 * base_phase_ms) + 1;
      sim->kill_pe(victim, t_kill);
      killed = true;
    }
    app.run_steps(cfg.period);
    if (ft.failure_detected() && !recovered) {
      const sim::TimeNs drained_at = rt.now();
      core::RecoveryReport report = ft.recover();
      row->detect_ms = sim::to_ms(report.detected_at - t_kill);
      row->stall_ms = sim::to_ms(drained_at - report.detected_at);
      row->recover_ms = sim::to_ms(report.recovered_at - drained_at);
      const sim::TimeNs redo_start = rt.now();
      app.run_steps(cfg.period);  // the rolled-back phase, again
      row->redo_ms = sim::to_ms(rt.now() - redo_start);
      recovered = true;
    }
  }
  MDO_CHECK_MSG(recovered, "crash run finished without detecting the kill");
  return app.gather_mesh();
}

bool same_mesh(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t mesh = 96;
  std::int64_t pes = 8;
  std::int64_t objects = 64;
  std::int64_t total_steps = 20;
  std::vector<double> latencies = {0, 8, 32};
  std::vector<std::int64_t> periods = {1, 2, 5, 10};
  std::int64_t seed = 1;
  bool csv = false;

  Options opts(
      "crash_recovery_sweep — checkpoint-period vs recovery-overhead "
      "tradeoff across WAN latencies (buddy checkpoints, heartbeat "
      "detection, automatic recovery)");
  opts.add_int("mesh", &mesh, "mesh edge (cells)")
      .add_int("pes", &pes, "processors, split across two clusters")
      .add_int("objects", &objects, "chare objects (virtualization degree)")
      .add_int("steps", &total_steps, "total stencil steps per run")
      .add_double_list("latencies", &latencies,
                       "comma-separated one-way WAN latencies (ms)")
      .add_int_list("periods", &periods,
                    "comma-separated checkpoint periods (steps)")
      .add_int("seed", &seed, "scenario RNG seed")
      .add_flag("csv", &csv, "emit CSV instead of aligned tables");
  if (!opts.parse(argc, argv)) return opts.error() ? 1 : 0;

  std::printf(
      "Crash-recovery sweep: stencil %lldx%lld on %lld PEs (%lld objects), "
      "%lld steps, one PE killed mid-phase\n",
      static_cast<long long>(mesh), static_cast<long long>(mesh),
      static_cast<long long>(pes), static_cast<long long>(objects),
      static_cast<long long>(total_steps));

  bench::print_section(
      "checkpoint overhead and recovery latency vs WAN latency and period");
  TextTable table({"wan_ms", "ckpt_steps", "base_ms_step", "ft_ms_step",
                   "ckpt_overhead_pct", "ckpt_cost_ms", "ckpt_kb",
                   "detect_ms", "stall_ms", "recover_ms", "redo_ms",
                   "bit_identical"});

  for (const double latency_ms : latencies) {
    Config cfg;
    cfg.pes = static_cast<std::size_t>(pes);
    cfg.one_way = sim::milliseconds(latency_ms);
    cfg.total_steps = static_cast<std::int32_t>(total_steps);
    cfg.seed = static_cast<std::uint64_t>(seed);
    cfg.params.mesh = static_cast<std::int32_t>(mesh);
    cfg.params.objects = static_cast<std::int32_t>(objects);
    cfg.params.real_compute = true;

    double base_ms_step = 0.0;
    const std::vector<double> reference = run_baseline(cfg, &base_ms_step);

    for (const std::int64_t period : periods) {
      cfg.period = static_cast<std::int32_t>(period);
      if (cfg.period <= 0 || cfg.total_steps % cfg.period != 0) {
        std::fprintf(stderr, "skipping period %lld (must divide %lld)\n",
                     static_cast<long long>(period),
                     static_cast<long long>(total_steps));
        continue;
      }
      SweepRow row;
      row.base_ms_step = base_ms_step;
      const std::vector<double> ft_mesh = run_checkpointed(cfg, &row);
      const double base_phase_ms =
          base_ms_step * static_cast<double>(cfg.period);
      const std::vector<double> crash_mesh =
          run_crashed(cfg, base_phase_ms, &row);
      row.identical =
          same_mesh(reference, ft_mesh) && same_mesh(reference, crash_mesh);

      const double overhead_pct =
          row.base_ms_step > 0.0
              ? 100.0 * (row.ft_ms_step / row.base_ms_step - 1.0)
              : 0.0;
      table.add_row({fmt_double(latency_ms, 0), std::to_string(cfg.period),
                     fmt_double(row.base_ms_step, 3),
                     fmt_double(row.ft_ms_step, 3), fmt_double(overhead_pct, 1),
                     fmt_double(row.ckpt_cost_ms, 3), fmt_double(row.ckpt_kb, 1),
                     fmt_double(row.detect_ms, 1), fmt_double(row.stall_ms, 1),
                     fmt_double(row.recover_ms, 3), fmt_double(row.redo_ms, 1),
                     row.identical ? "yes" : "NO"});
    }
  }
  std::fputs((csv ? table.render_csv() : table.render()).c_str(), stdout);
  return 0;
}
