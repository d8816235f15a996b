// Figure 3 reproduction: five-point stencil on a 2048×2048 mesh,
// execution time per step as a function of the artificially injected
// cross-cluster latency (0–32 ms one-way), for 2–64 processors split
// evenly across two clusters and several degrees of virtualization.
//
// Expected shape (paper §5.2): curves stay near-horizontal while the
// latency is maskable; higher virtualization keeps them flat longer and
// climbs with a shallower slope once masking saturates.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "util/options.hpp"

using namespace mdo;

int main(int argc, char** argv) {
  std::int64_t mesh = 2048;
  std::int64_t warmup = 2;
  std::int64_t steps = 10;
  std::vector<std::int64_t> pes = {2, 4, 8, 16, 32, 64};
  std::vector<std::int64_t> latencies = {0, 1, 2, 4, 8, 16, 32};
  bool csv = false;

  Options opts("fig3_stencil_latency — Figure 3: stencil ms/step vs WAN latency");
  opts.add_int("mesh", &mesh, "mesh edge (cells)")
      .add_int("warmup", &warmup, "warmup steps per configuration")
      .add_int("steps", &steps, "measured steps per configuration")
      .add_int_list("pes", &pes, "comma-separated processor counts")
      .add_int_list("latencies", &latencies, "one-way latencies in ms")
      .add_flag("csv", &csv, "emit CSV instead of aligned tables");
  if (!opts.parse(argc, argv)) return opts.error() ? 1 : 0;


  std::printf("Figure 3: five-point stencil %lldx%lld, two clusters, "
              "artificial one-way latency sweep (ms/step)\n",
              static_cast<long long>(mesh), static_cast<long long>(mesh));

  for (std::int64_t p : pes) {
    bench::print_section("Figure 3: " + std::to_string(p) + " processors (" +
                         std::to_string(p / 2) + "+" + std::to_string(p / 2) +
                         ")");
    std::vector<std::string> header{"latency_ms"};
    for (std::int32_t objs : bench::stencil_object_counts(p))
      header.push_back(std::to_string(objs) + "_objects");
    TextTable table(header);

    for (std::int64_t lat : latencies) {
      std::vector<std::string> row{std::to_string(lat)};
      for (std::int32_t objs : bench::stencil_object_counts(p)) {
        apps::stencil::Params params;
        params.mesh = static_cast<std::int32_t>(mesh);
        params.objects = objs;
        auto scenario = grid::Scenario::artificial(
            static_cast<std::size_t>(p), sim::milliseconds(static_cast<double>(lat)));
        auto run = bench::run_stencil(scenario, params,
                                      static_cast<std::int32_t>(warmup),
                                      static_cast<std::int32_t>(steps));
        row.push_back(fmt_double(run.ms_per_step, 3));
      }
      table.add_row(std::move(row));
    }
    std::fputs((csv ? table.render_csv() : table.render()).c_str(), stdout);
  }
  return 0;
}
