// Lossy-WAN sweep: five-point stencil across two clusters with a fixed
// artificial one-way latency, sweeping the wire-frame drop probability.
// The reliability device repairs every loss by retransmission, so the
// application still completes exactly-once in-order; this harness
// measures what that repair costs (ms/step overhead vs the lossless run)
// and reports the reliability-layer counters for each loss rate.
//
// Every gated column is a deterministic virtual quantity, so the sweep
// runs as an exact perf gate (`ctest -L perf`) against bench/baselines/,
// one row per loss rate and metric (`0.5pct/step_ns`, ...). Zero-valued
// counters are stored +1: perf_gate forces ratio 1.0 on a zero baseline,
// which would mask a regression from 0. It also checks in-process that
// no loss rate suppresses more duplicates than the wire dropped frames:
// a selective-repeat sender resends only what is missing, so a surplus
// means frames that had arrived were sent again.

#include <cstdio>
#include <string>
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

void record(bench::JsonRecorder& rec, const std::string& loss_field,
            const char* metric, double value) {
  obs::Json row = obs::Json::object();
  row.set("name", loss_field + "pct/" + metric);
  row.set("real_ns", value);
  rec.add_run(std::move(row));
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
      .add_flag("csv", &csv, "emit CSV instead of aligned tables");
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
  bool surplus_duplicates = false;
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
    const std::uint64_t retransmits = m.counter("net.reliable.retransmits");
    const std::uint64_t dropped = m.counter("net.fault.dropped");
    const std::uint64_t duplicates =
        m.counter("net.reliable.duplicates_suppressed");
    table.add_row(
        {fmt_double(loss_pct, 1), fmt_double(run.ms_per_step, 3),
         fmt_double(overhead, 1),
         std::to_string(m.counter("net.reliable.data_sent")),
         std::to_string(retransmits), std::to_string(dropped),
         std::to_string(duplicates),
         fmt_double(m.gauge("net.reliable.ack_rtt_ns") / 1e6, 3)});
    char field[32];  // "0.5", "2": the JSON label
    std::snprintf(field, sizeof field, "%g", loss_pct);
    record(recorder, field, "step_ns", run.ms_per_step * 1e6);
    record(recorder, field, "retransmits_plus1",
           static_cast<double>(retransmits + 1));
    record(recorder, field, "duplicates_plus1",
           static_cast<double>(duplicates + 1));
    if (duplicates > dropped) {
      std::fprintf(stderr,
                   "loss %s%%: %llu duplicates suppressed exceed %llu frames "
                   "dropped\n",
                   field, static_cast<unsigned long long>(duplicates),
                   static_cast<unsigned long long>(dropped));
      surplus_duplicates = true;
    }
  }
  std::fputs((csv ? table.render_csv() : table.render()).c_str(), stdout);
  if (!recorder.write(".")) {
    std::fprintf(stderr, "failed to write %s\n", recorder.path(".").c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", recorder.path(".").c_str());
  return surplus_duplicates ? 1 : 0;
}
