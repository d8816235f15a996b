// Ablation C: the algorithm-level alternative from related work [6] —
// ghost-zone expansion (exchange every g steps with g-deep halos) —
// versus runtime-level virtualization, and the two combined. Wider
// ghosts trade redundant halo recomputation for fewer, larger, less
// frequent messages.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "util/options.hpp"

using namespace mdo;

int main(int argc, char** argv) {
  std::int64_t pes = 16;
  std::int64_t warmup = 0;
  std::int64_t steps = 12;
  std::vector<std::int64_t> latencies = {0, 8, 32};

  Options opts(
      "ablation_ghostzone — ghost-zone expansion [6] vs virtualization");
  opts.add_int("pes", &pes, "processor count")
      .add_int("warmup", &warmup, "warmup steps (multiple of every g)")
      .add_int("steps", &steps, "measured steps (multiple of every g)")
      .add_int_list("latencies", &latencies, "one-way latencies in ms");
  if (!opts.parse(argc, argv)) return opts.error() ? 1 : 0;

  struct Config {
    const char* label;
    std::int32_t objects;
    std::int32_t ghost_width;
  };
  const Config configs[] = {
      {"low-virt g=1 (baseline)", 16, 1},
      {"low-virt g=2", 16, 2},
      {"low-virt g=4", 16, 4},
      {"high-virt g=1 (paper's approach)", 256, 1},
      {"high-virt g=4 (combined)", 256, 4},
  };

  bench::print_section("Ablation C: stencil 2048x2048, " +
                       std::to_string(pes) +
                       " PEs — ghost-zone width vs virtualization (ms/step)");
  std::vector<std::string> header{"configuration"};
  for (std::int64_t lat : latencies)
    header.push_back(std::to_string(lat) + "ms");
  TextTable table(header);

  for (const Config& cfg : configs) {
    std::vector<std::string> row{cfg.label};
    for (std::int64_t lat : latencies) {
      apps::stencil::Params params;
      params.mesh = 2048;
      params.objects = cfg.objects;
      params.ghost_width = cfg.ghost_width;
      auto round_to_g = [&](std::int64_t s) {
        return static_cast<std::int32_t>(s - s % cfg.ghost_width);
      };
      auto run = bench::run_stencil(
          grid::Scenario::artificial(static_cast<std::size_t>(pes),
                                     sim::milliseconds(static_cast<double>(lat))),
          params, round_to_g(warmup), round_to_g(steps));
      row.push_back(fmt_double(run.ms_per_step, 3));
    }
    table.add_row(std::move(row));
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nExpected: g>1 flattens the low-virtualization curves at a compute\n"
      "premium; high virtualization achieves the same tolerance with no\n"
      "algorithm change (the paper's point), and combining both helps at\n"
      "extreme latencies.\n");
  return 0;
}
