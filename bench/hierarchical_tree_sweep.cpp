// Hierarchical-tree sweep: flat vs topology-aware collective trees on
// N-cluster grids at a fixed per-site allocation (4 PEs per cluster).
// For each cluster count the stencil and LeanMD run twice — once with
// the flat (topology-blind) spanning tree, once with the hierarchical
// one — and the harness reports cross-cluster wire frames and virtual
// step time. The hierarchical tree crosses the WAN once per destination
// cluster, so the frame saving widens as the grid grows; both columns
// are deterministic virtual quantities, which makes this sweep a perf
// gate (`ctest -L perf`) against bench/baselines/.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/tree.hpp"
#include "util/options.hpp"

using namespace mdo;

namespace {

struct ModeRun {
  double ms_per_step = 0.0;
  std::uint64_t wan_wire_frames = 0;
};

ModeRun run_stencil(const grid::Scenario& scenario, core::TreeMode mode,
                    apps::stencil::Params params, std::int32_t warmup,
                    std::int32_t steps) {
  core::Runtime rt(grid::make_machine(scenario));
  rt.set_collective_mode(mode);
  apps::stencil::StencilApp app(rt, params);
  if (warmup > 0) app.run_steps(warmup);
  auto phase = app.run_steps(steps);
  return ModeRun{phase.ms_per_step, phase.fabric.wan_wire_frames};
}

ModeRun run_leanmd(const grid::Scenario& scenario, core::TreeMode mode,
                   apps::leanmd::Params params, std::int32_t warmup,
                   std::int32_t steps) {
  core::Runtime rt(grid::make_machine(scenario));
  rt.set_collective_mode(mode);
  apps::leanmd::LeanMdApp app(rt, params);
  if (warmup > 0) app.run_steps(warmup);
  auto phase = app.run_steps(steps);
  return ModeRun{1000.0 * phase.s_per_step, phase.fabric.wan_wire_frames};
}

double pct_reduction(std::uint64_t base, std::uint64_t now) {
  return base > 0 ? 100.0 * (1.0 - static_cast<double>(now) /
                                       static_cast<double>(base))
                  : 0.0;
}

/// Two deterministic gate records per (app, clusters, mode): the WAN
/// wire-frame count and the virtual step time, both carried in the
/// "real_ns" field the perf gate compares.
void record(bench::JsonRecorder& rec, const std::string& app,
            std::size_t clusters, const char* mode, const ModeRun& run) {
  obs::Json frames = obs::Json::object();
  frames.set("name",
             app + "/" + std::to_string(clusters) + "c/" + mode + "/wan_frames");
  frames.set("real_ns", static_cast<double>(run.wan_wire_frames));
  rec.add_run(std::move(frames));
  obs::Json step = obs::Json::object();
  step.set("name",
           app + "/" + std::to_string(clusters) + "c/" + mode + "/step_ns");
  step.set("real_ns", run.ms_per_step * 1e6);
  rec.add_run(std::move(step));
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t pes_per_cluster = 4;
  std::int64_t mesh = 256;
  std::int64_t objects = 64;
  std::int64_t warmup = 1;
  std::int64_t steps = 6;
  std::int64_t leanmd_cells = 4;
  std::int64_t leanmd_atoms = 50;
  std::int64_t leanmd_steps = 3;
  std::vector<std::int64_t> cluster_counts = {2, 4, 8};
  double latency_ms = 4.0;
  bool csv = false;

  Options opts(
      "hierarchical_tree_sweep — WAN crossings and step time of flat vs "
      "topology-aware collective trees as the cluster count grows");
  opts.add_int("pes-per-cluster", &pes_per_cluster, "PEs per WAN site")
      .add_int("mesh", &mesh, "stencil mesh edge (cells)")
      .add_int("objects", &objects, "stencil chare objects")
      .add_int("warmup", &warmup, "warmup steps per configuration")
      .add_int("steps", &steps, "measured stencil steps per configuration")
      .add_int("leanmd-cells", &leanmd_cells, "LeanMD cells per dimension")
      .add_int("leanmd-atoms", &leanmd_atoms, "LeanMD atoms per cell")
      .add_int("leanmd-steps", &leanmd_steps, "measured LeanMD steps")
      .add_double("latency", &latency_ms, "base one-way WAN latency (ms)")
      .add_int_list("clusters", &cluster_counts,
                    "comma-separated cluster counts")
      .add_flag("csv", &csv, "emit CSV instead of aligned tables");
  if (!opts.parse(argc, argv)) return opts.error() ? 1 : 0;

  apps::stencil::Params sp;
  sp.mesh = static_cast<std::int32_t>(mesh);
  sp.objects = static_cast<std::int32_t>(objects);
  apps::leanmd::Params lp;
  lp.cells_per_dim = static_cast<std::int32_t>(leanmd_cells);
  lp.atoms_per_cell = static_cast<std::int32_t>(leanmd_atoms);

  bench::JsonRecorder recorder("hier_tree_sweep");
  recorder.config("pes_per_cluster", pes_per_cluster)
      .config("latency_ms", latency_ms)
      .config("mesh", mesh)
      .config("objects", objects);

  std::printf(
      "Hierarchical-tree sweep: %lld PEs per site, base one-way %.1f ms\n",
      static_cast<long long>(pes_per_cluster), latency_ms);

  bench::print_section("stencil: flat vs hierarchical trees");
  TextTable st({"clusters", "pes", "flat_ms_step", "hier_ms_step",
                "flat_wan_frames", "hier_wan_frames", "reduction_pct"});
  for (const std::int64_t count : cluster_counts) {
    const auto clusters = static_cast<std::size_t>(count);
    const auto pes = clusters * static_cast<std::size_t>(pes_per_cluster);
    grid::Scenario s = grid::Scenario::artificial(pes, sim::milliseconds(latency_ms))
                           .with_clusters(clusters);
    auto flat = run_stencil(s, core::TreeMode::kFlat, sp,
                            static_cast<std::int32_t>(warmup),
                            static_cast<std::int32_t>(steps));
    auto hier = run_stencil(s, core::TreeMode::kHierarchical, sp,
                            static_cast<std::int32_t>(warmup),
                            static_cast<std::int32_t>(steps));
    st.add_row({std::to_string(count), std::to_string(pes),
                fmt_double(flat.ms_per_step, 3),
                fmt_double(hier.ms_per_step, 3),
                std::to_string(flat.wan_wire_frames),
                std::to_string(hier.wan_wire_frames),
                fmt_double(pct_reduction(flat.wan_wire_frames,
                                         hier.wan_wire_frames),
                           1)});
    record(recorder, "stencil", clusters, "flat", flat);
    record(recorder, "stencil", clusters, "hier", hier);
  }
  std::fputs((csv ? st.render_csv() : st.render()).c_str(), stdout);

  bench::print_section("LeanMD: flat vs hierarchical trees");
  TextTable lt({"clusters", "pes", "flat_ms_step", "hier_ms_step",
                "flat_wan_frames", "hier_wan_frames", "reduction_pct"});
  for (const std::int64_t count : cluster_counts) {
    const auto clusters = static_cast<std::size_t>(count);
    const auto pes = clusters * static_cast<std::size_t>(pes_per_cluster);
    grid::Scenario s = grid::Scenario::artificial(pes, sim::milliseconds(latency_ms))
                           .with_clusters(clusters);
    auto flat = run_leanmd(s, core::TreeMode::kFlat, lp,
                           /*warmup=*/1,
                           static_cast<std::int32_t>(leanmd_steps));
    auto hier = run_leanmd(s, core::TreeMode::kHierarchical, lp,
                           /*warmup=*/1,
                           static_cast<std::int32_t>(leanmd_steps));
    lt.add_row({std::to_string(count), std::to_string(pes),
                fmt_double(flat.ms_per_step, 3),
                fmt_double(hier.ms_per_step, 3),
                std::to_string(flat.wan_wire_frames),
                std::to_string(hier.wan_wire_frames),
                fmt_double(pct_reduction(flat.wan_wire_frames,
                                         hier.wan_wire_frames),
                           1)});
    record(recorder, "leanmd", clusters, "flat", flat);
    record(recorder, "leanmd", clusters, "hier", hier);
  }
  std::fputs((csv ? lt.render_csv() : lt.render()).c_str(), stdout);

  if (!recorder.write(".")) {
    std::fprintf(stderr, "failed to write %s\n", recorder.path(".").c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", recorder.path(".").c_str());
  return 0;
}
