// Coalesce-WAN sweep: how many wire frames does the coalescing device
// save on the WAN link, and what does the bundling delay cost in
// end-to-end step time? For each artificial one-way latency the stencil
// (and LeanMD) run once on a clean fabric and once with
// coalescing enabled; the harness reports the cross-cluster wire-frame
// reduction, the ms/step delta, and the device's flush-reason histogram.
// A second section sweeps the bundle-size threshold at fixed latency.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "net/coalesce.hpp"
#include "obs/metrics.hpp"
#include "util/options.hpp"

using namespace mdo;

namespace {

struct CoalesceRun {
  double ms_per_step = 0.0;
  std::uint64_t wire_frames = 0;
  std::uint64_t wan_wire_frames = 0;
  net::CoalesceDevice::Counters coalesce{};
  obs::Snapshot metrics;
};

CoalesceRun run_stencil(const grid::Scenario& scenario,
                        apps::stencil::Params params, std::int32_t warmup,
                        std::int32_t steps) {
  auto machine = grid::make_machine(scenario);
  auto* raw = static_cast<core::SimMachine*>(machine.get());
  core::Runtime rt(std::move(machine));
  apps::stencil::StencilApp app(rt, params);
  if (warmup > 0) app.run_steps(warmup);
  auto phase = app.run_steps(steps);
  CoalesceRun run;
  run.ms_per_step = phase.ms_per_step;
  run.wire_frames = phase.fabric.wire_frames;
  run.wan_wire_frames = phase.fabric.wan_wire_frames;
  if (raw->coalesce() != nullptr) run.coalesce = raw->coalesce()->counters();
  run.metrics = raw->metrics().snapshot();
  return run;
}

CoalesceRun run_leanmd(const grid::Scenario& scenario,
                       apps::leanmd::Params params, std::int32_t warmup,
                       std::int32_t steps) {
  auto machine = grid::make_machine(scenario);
  auto* raw = static_cast<core::SimMachine*>(machine.get());
  core::Runtime rt(std::move(machine));
  apps::leanmd::LeanMdApp app(rt, params);
  if (warmup > 0) app.run_steps(warmup);
  auto phase = app.run_steps(steps);
  CoalesceRun run;
  run.ms_per_step = 1000.0 * phase.s_per_step;
  run.wire_frames = phase.fabric.wire_frames;
  run.wan_wire_frames = phase.fabric.wan_wire_frames;
  if (raw->coalesce() != nullptr) run.coalesce = raw->coalesce()->counters();
  return run;
}

double pct_reduction(std::uint64_t base, std::uint64_t now) {
  return base > 0 ? 100.0 * (1.0 - static_cast<double>(now) /
                                       static_cast<double>(base))
                  : 0.0;
}

double pct_delta(double base, double now) {
  return base > 0.0 ? 100.0 * (now / base - 1.0) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t mesh = 1024;
  std::int64_t pes = 8;
  std::int64_t objects = 1024;
  std::int64_t warmup = 2;
  std::int64_t steps = 10;
  std::int64_t leanmd_cells = 4;
  std::int64_t leanmd_atoms = 100;
  std::int64_t leanmd_steps = 4;
  std::vector<double> latencies = {1, 2, 4, 8, 16};
  std::vector<std::int64_t> bundles = {2, 4, 8, 16, 32, 64};
  std::int64_t fixed_latency_ms = 8;
  std::int64_t flush_us = 0;
  bool csv = false;

  Options opts(
      "coalesce_wan_sweep — WAN wire-frame reduction and step-time cost "
      "of message coalescing vs latency and bundle threshold");
  opts.add_int("mesh", &mesh, "stencil mesh edge (cells)")
      .add_int("pes", &pes, "processors, split across two clusters")
      .add_int("objects", &objects, "stencil chare objects")
      .add_int("warmup", &warmup, "warmup steps per configuration")
      .add_int("steps", &steps, "measured stencil steps per configuration")
      .add_int("leanmd-cells", &leanmd_cells, "LeanMD cells per dimension")
      .add_int("leanmd-atoms", &leanmd_atoms,
               "LeanMD atoms per cell (sizes the coords messages)")
      .add_int("leanmd-steps", &leanmd_steps, "measured LeanMD steps")
      .add_int("fixed-latency", &fixed_latency_ms,
               "one-way latency (ms) for the bundle-threshold sweep")
      .add_double_list("latencies", &latencies,
                       "comma-separated one-way latencies in ms")
      .add_int_list("bundles", &bundles,
                    "comma-separated max_bundle_packets values")
      .add_int("flush-us", &flush_us,
               "override the aggregation window (us); 0 = latency-sized")
      .add_flag("csv", &csv, "emit CSV instead of aligned tables");
  if (!opts.parse(argc, argv)) return opts.error() ? 1 : 0;

  apps::stencil::Params sp;
  sp.mesh = static_cast<std::int32_t>(mesh);
  sp.objects = static_cast<std::int32_t>(objects);

  std::printf(
      "Coalesce-WAN sweep: stencil %lldx%lld on %lld PEs (%lld objects), "
      "latency and bundle threshold swept\n",
      static_cast<long long>(mesh), static_cast<long long>(mesh),
      static_cast<long long>(pes), static_cast<long long>(objects));

  bench::print_section("stencil: wire-frame reduction vs one-way latency");
  TextTable table({"latency_ms", "base_ms_step", "coal_ms_step", "delta_pct",
                   "base_wan_frames", "coal_wan_frames", "reduction_pct",
                   "bundles", "mean_occ", "flush_size", "flush_timer",
                   "flush_idle"});
  for (const double latency_ms : latencies) {
    const sim::TimeNs one_way = sim::milliseconds(latency_ms);
    const auto pe_count = static_cast<std::size_t>(pes);
    auto base = run_stencil(grid::Scenario::artificial(pe_count, one_way), sp,
                            static_cast<std::int32_t>(warmup),
                            static_cast<std::int32_t>(steps));
    auto coalesced =
        grid::Scenario::artificial(pe_count, one_way).with_coalescing();
    if (flush_us > 0) {
      coalesced.coalesce.flush_timeout =
          sim::microseconds(static_cast<double>(flush_us));
    }
    auto coal = run_stencil(coalesced, sp, static_cast<std::int32_t>(warmup),
                            static_cast<std::int32_t>(steps));
    table.add_row(
        {fmt_double(latency_ms, 1), fmt_double(base.ms_per_step, 3),
         fmt_double(coal.ms_per_step, 3),
         fmt_double(pct_delta(base.ms_per_step, coal.ms_per_step), 2),
         std::to_string(base.wan_wire_frames),
         std::to_string(coal.wan_wire_frames),
         fmt_double(pct_reduction(base.wan_wire_frames, coal.wan_wire_frames),
                    1),
         std::to_string(coal.coalesce.bundles_sent),
         fmt_double(coal.coalesce.mean_occupancy(), 2),
         std::to_string(coal.coalesce.flush_size),
         std::to_string(coal.coalesce.flush_timer),
         std::to_string(coal.coalesce.flush_idle)});
  }
  std::fputs((csv ? table.render_csv() : table.render()).c_str(), stdout);

  bench::print_section("stencil: bundle-size threshold sweep");
  TextTable bt({"max_pkts", "ms_per_step", "delta_pct", "wan_frames",
                "reduction_pct", "bundles", "mean_occ", "flush_size",
                "flush_timer", "flush_idle"});
  {
    const sim::TimeNs one_way =
        sim::milliseconds(static_cast<double>(fixed_latency_ms));
    const auto pe_count = static_cast<std::size_t>(pes);
    auto base = run_stencil(grid::Scenario::artificial(pe_count, one_way), sp,
                            static_cast<std::int32_t>(warmup),
                            static_cast<std::int32_t>(steps));
    for (const std::int64_t max_pkts : bundles) {
      auto scenario =
          grid::Scenario::artificial(pe_count, one_way).with_coalescing();
      scenario.coalesce.max_bundle_packets =
          static_cast<std::size_t>(max_pkts);
      if (flush_us > 0) {
        scenario.coalesce.flush_timeout =
            sim::microseconds(static_cast<double>(flush_us));
      }
      auto coal = run_stencil(scenario, sp, static_cast<std::int32_t>(warmup),
                              static_cast<std::int32_t>(steps));
      bt.add_row(
          {std::to_string(max_pkts), fmt_double(coal.ms_per_step, 3),
           fmt_double(pct_delta(base.ms_per_step, coal.ms_per_step), 2),
           std::to_string(coal.wan_wire_frames),
           fmt_double(pct_reduction(base.wan_wire_frames, coal.wan_wire_frames),
                      1),
           std::to_string(coal.coalesce.bundles_sent),
           fmt_double(coal.coalesce.mean_occupancy(), 2),
           std::to_string(coal.coalesce.flush_size),
           std::to_string(coal.coalesce.flush_timer),
           std::to_string(coal.coalesce.flush_idle)});
    }
  }
  std::fputs((csv ? bt.render_csv() : bt.render()).c_str(), stdout);

  bench::print_section("LeanMD: wire-frame reduction vs one-way latency");
  apps::leanmd::Params lp;
  lp.cells_per_dim = static_cast<std::int32_t>(leanmd_cells);
  lp.atoms_per_cell = static_cast<std::int32_t>(leanmd_atoms);
  TextTable lt({"latency_ms", "base_ms_step", "coal_ms_step", "delta_pct",
                "base_wan_frames", "coal_wan_frames", "reduction_pct",
                "bundles", "mean_occ"});
  for (const double latency_ms : latencies) {
    const sim::TimeNs one_way = sim::milliseconds(latency_ms);
    const auto pe_count = static_cast<std::size_t>(pes);
    auto base = run_leanmd(grid::Scenario::artificial(pe_count, one_way), lp, 1,
                           static_cast<std::int32_t>(leanmd_steps));
    auto coal = run_leanmd(
        grid::Scenario::artificial(pe_count, one_way).with_coalescing(), lp, 1,
                           static_cast<std::int32_t>(leanmd_steps));
    lt.add_row(
        {fmt_double(latency_ms, 1), fmt_double(base.ms_per_step, 3),
         fmt_double(coal.ms_per_step, 3),
         fmt_double(pct_delta(base.ms_per_step, coal.ms_per_step), 2),
         std::to_string(base.wan_wire_frames),
         std::to_string(coal.wan_wire_frames),
         fmt_double(pct_reduction(base.wan_wire_frames, coal.wan_wire_frames),
                    1),
         std::to_string(coal.coalesce.bundles_sent),
         fmt_double(coal.coalesce.mean_occupancy(), 2)});
  }
  std::fputs((csv ? lt.render_csv() : lt.render()).c_str(), stdout);

  bench::print_section("device counters at default config (stencil, 8 ms)");
  {
    auto coal = run_stencil(
        grid::Scenario::artificial(static_cast<std::size_t>(pes),
                                   sim::milliseconds(8.0))
            .with_coalescing(),
        sp, static_cast<std::int32_t>(warmup), static_cast<std::int32_t>(steps));
    std::fputs(coal.metrics.render_table("net.coalesce").c_str(), stdout);
  }
  return 0;
}
