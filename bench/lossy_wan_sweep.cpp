// Lossy-WAN sweep: five-point stencil across two clusters with a fixed
// artificial one-way latency, sweeping the wire-frame drop probability.
// The reliability device repairs every loss by retransmission, so the
// application still completes exactly-once in-order; this harness
// measures what that repair costs (ms/step overhead vs the lossless run)
// and reports the reliability-layer counters for each loss rate.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "util/options.hpp"

using namespace mdo;

namespace {

struct LossyRun {
  double ms_per_step = 0.0;
  obs::Snapshot metrics;
};

LossyRun run_lossy_stencil(const grid::Scenario& scenario,
                           apps::stencil::Params params, std::int32_t warmup,
                           std::int32_t steps) {
  auto machine = grid::make_machine(scenario);
  auto* raw = static_cast<core::SimMachine*>(machine.get());
  core::Runtime rt(std::move(machine));
  apps::stencil::StencilApp app(rt, params);
  if (warmup > 0) app.run_steps(warmup);
  auto phase = app.run_steps(steps);
  LossyRun run;
  run.ms_per_step = phase.ms_per_step;
  run.metrics = raw->metrics().snapshot();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t mesh = 1024;
  std::int64_t pes = 8;
  std::int64_t objects = 64;
  std::int64_t latency_ms = 5;
  std::int64_t warmup = 2;
  std::int64_t steps = 10;
  std::int64_t seed = 1;
  std::vector<double> losses = {0, 0.5, 1, 2, 5};
  bool csv = false;
  bool json = false;

  Options opts(
      "lossy_wan_sweep — stencil ms/step and retransmission cost vs "
      "wire-frame loss rate");
  opts.add_int("mesh", &mesh, "mesh edge (cells)")
      .add_int("pes", &pes, "processors, split across two clusters")
      .add_int("objects", &objects, "chare objects (virtualization degree)")
      .add_int("latency", &latency_ms, "artificial one-way latency (ms)")
      .add_int("warmup", &warmup, "warmup steps per configuration")
      .add_int("steps", &steps, "measured steps per configuration")
      .add_int("seed", &seed, "fault-injection RNG seed")
      .add_double_list("losses", &losses,
                       "comma-separated loss rates in percent")
      .add_flag("csv", &csv, "emit CSV instead of aligned tables")
      .add_flag("json", &json, "also write BENCH_lossy_wan_sweep.json");
  if (!opts.parse(argc, argv)) return opts.error() ? 1 : 0;

  apps::stencil::Params params;
  params.mesh = static_cast<std::int32_t>(mesh);
  params.objects = static_cast<std::int32_t>(objects);

  std::printf(
      "Lossy-WAN sweep: stencil %lldx%lld on %lld PEs (%lld objects), "
      "one-way latency %lld ms, loss swept\n",
      static_cast<long long>(mesh), static_cast<long long>(mesh),
      static_cast<long long>(pes), static_cast<long long>(objects),
      static_cast<long long>(latency_ms));

  bench::print_section("ms/step and reliability counters vs loss rate");
  TextTable table({"loss_pct", "ms_per_step", "overhead_pct", "data_sent",
                   "retransmits", "dropped", "dup_suppressed", "ack_rtt_ms"});

  bench::JsonRecorder recorder("lossy_wan_sweep");
  recorder.config("mesh", mesh)
      .config("pes", pes)
      .config("objects", objects)
      .config("latency_ms", latency_ms)
      .config("warmup", warmup)
      .config("steps", steps)
      .config("seed", seed);

  double baseline = 0.0;
  for (const double loss_pct : losses) {
    auto scenario =
        grid::Scenario::artificial(
            static_cast<std::size_t>(pes),
            sim::milliseconds(static_cast<double>(latency_ms)))
            .with_loss(loss_pct / 100.0, static_cast<std::uint64_t>(seed));
    auto run = run_lossy_stencil(scenario, params,
                                 static_cast<std::int32_t>(warmup),
                                 static_cast<std::int32_t>(steps));
    if (baseline == 0.0) baseline = run.ms_per_step;
    const double overhead =
        baseline > 0.0 ? 100.0 * (run.ms_per_step / baseline - 1.0) : 0.0;
    const obs::Snapshot& m = run.metrics;
    table.add_row(
        {fmt_double(loss_pct, 1), fmt_double(run.ms_per_step, 3),
         fmt_double(overhead, 1),
         std::to_string(m.counter("net.reliable.data_sent")),
         std::to_string(m.counter("net.reliable.retransmits")),
         std::to_string(m.counter("net.fault.dropped")),
         std::to_string(m.counter("net.reliable.duplicates_suppressed")),
         fmt_double(m.gauge("net.reliable.ack_rtt_ns") / 1e6, 3)});
    obs::Json record =
        bench::JsonRecorder::run_record(run.ms_per_step, run.metrics);
    record.set("loss_pct", loss_pct);
    recorder.add_run(std::move(record));
  }
  std::fputs((csv ? table.render_csv() : table.render()).c_str(), stdout);
  if (json && !recorder.write()) {
    std::fprintf(stderr, "failed to write %s\n", recorder.path(".").c_str());
    return 1;
  }
  return 0;
}
