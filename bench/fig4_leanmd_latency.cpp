// Figure 4 reproduction: LeanMD (216 cells, 3 024 cell-pair objects,
// ~8 s serial step) — time per step as a function of artificial
// cross-cluster latency (1–256 ms) on 2–64 processors.
//
// Expected shape (paper §5.3): scaling up to 32 PEs, stagnating at 64;
// low processor counts ignore latency entirely; 32 PEs (90+ objects per
// PE) show no impact up to ~32 ms; only very large latencies relative to
// the step time bend the curves upward.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "util/options.hpp"

using namespace mdo;

int main(int argc, char** argv) {
  std::int64_t warmup = 1;
  std::int64_t steps = 4;
  std::vector<std::int64_t> pes = {2, 4, 8, 16, 32, 64};
  std::vector<std::int64_t> latencies = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  bool csv = false;

  Options opts("fig4_leanmd_latency — Figure 4: LeanMD s/step vs WAN latency");
  opts.add_int("warmup", &warmup, "warmup steps per configuration")
      .add_int("steps", &steps, "measured steps per configuration")
      .add_int_list("pes", &pes, "comma-separated processor counts")
      .add_int_list("latencies", &latencies, "one-way latencies in ms")
      .add_flag("csv", &csv, "emit CSV instead of an aligned table");
  if (!opts.parse(argc, argv)) return opts.error() ? 1 : 0;


  bench::print_section(
      "Figure 4: LeanMD 216 cells / 3024 cell pairs — s/step vs artificial "
      "one-way latency");
  std::vector<std::string> header{"latency_ms"};
  for (std::int64_t p : pes) header.push_back(std::to_string(p) + "_pes");
  TextTable table(header);

  for (std::int64_t lat : latencies) {
    std::vector<std::string> row{std::to_string(lat)};
    for (std::int64_t p : pes) {
      apps::leanmd::Params params;  // the paper benchmark defaults
      auto scenario = grid::Scenario::artificial(
          static_cast<std::size_t>(p),
          sim::milliseconds(static_cast<double>(lat)));
      auto run = bench::run_leanmd(scenario, params,
                                   static_cast<std::int32_t>(warmup),
                                   static_cast<std::int32_t>(steps));
      row.push_back(fmt_double(run.s_per_step, 3));
    }
    table.add_row(std::move(row));
  }
  std::fputs((csv ? table.render_csv() : table.render()).c_str(), stdout);
  return 0;
}
