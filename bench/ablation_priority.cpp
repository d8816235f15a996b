// Ablation A (paper §6 future work #3): tagging cross-cluster messages
// with a higher delivery priority than local traffic. The stencil's WAN
// ghosts jump the scheduler queue, so the seam objects' dependencies
// resolve sooner once the message lands.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "util/options.hpp"

using namespace mdo;

int main(int argc, char** argv) {
  std::int64_t pes = 32;
  std::int64_t objects = 256;
  std::int64_t warmup = 2;
  std::int64_t steps = 10;
  std::vector<std::int64_t> latencies = {0, 2, 4, 8, 16, 32};

  Options opts(
      "ablation_priority — FIFO vs prioritized delivery of WAN messages");
  opts.add_int("pes", &pes, "processor count (split across two clusters)")
      .add_int("objects", &objects, "stencil objects")
      .add_int("warmup", &warmup, "warmup steps")
      .add_int("steps", &steps, "measured steps")
      .add_int_list("latencies", &latencies, "one-way latencies in ms");
  if (!opts.parse(argc, argv)) return opts.error() ? 1 : 0;

  bench::print_section(
      "Ablation A: stencil 2048x2048, " + std::to_string(pes) +
      " PEs, " + std::to_string(objects) +
      " objects — FIFO vs WAN-prioritized delivery (ms/step)");
  TextTable table({"latency_ms", "fifo", "wan_prioritized", "speedup_pct"});

  for (std::int64_t lat : latencies) {
    auto scenario = grid::Scenario::artificial(
        static_cast<std::size_t>(pes),
        sim::milliseconds(static_cast<double>(lat)));

    apps::stencil::Params fifo;
    fifo.mesh = 2048;
    fifo.objects = static_cast<std::int32_t>(objects);
    auto base = bench::run_stencil(scenario, fifo,
                                   static_cast<std::int32_t>(warmup),
                                   static_cast<std::int32_t>(steps));

    apps::stencil::Params prio = fifo;
    prio.wan_priority = -1;
    auto fast = bench::run_stencil(scenario, prio,
                                   static_cast<std::int32_t>(warmup),
                                   static_cast<std::int32_t>(steps));

    double speedup = 100.0 * (base.ms_per_step - fast.ms_per_step) /
                     (base.ms_per_step > 0 ? base.ms_per_step : 1.0);
    table.add_row({std::to_string(lat), fmt_double(base.ms_per_step, 3),
                   fmt_double(fast.ms_per_step, 3), fmt_double(speedup, 2)});
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}
