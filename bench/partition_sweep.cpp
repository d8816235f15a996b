// Partition sweep: false-kill rate and heal-to-resume time of the
// suspect/confirm failure detector as the partition length crosses the
// confirm window. Node 4 sits alone in cluster C of a 3-cluster grid
// (the devices are shared in-process, so only a single-node cluster can
// be silenced); every directed pair touching that cluster is severed for
// the swept length while a sender pumps messages at the isolated node.
//
//   length << timeout          -> no suspicion, retransmission repairs
//   timeout < length < confirm -> suspicion + quarantine, the heal
//                                 demotes the suspect and flows resume
//                                 seq-exact (heal_to_resume measures it)
//   length > confirm           -> indistinguishable from death: the node
//                                 is (falsely) confirmed dead — the
//                                 fundamental limit the confirm window
//                                 buys room against
//
// Every column is a deterministic virtual quantity, so this sweep runs
// as an exact perf gate (`ctest -L perf`) against bench/baselines/.
// Zero-valued gate metrics are stored +1: perf_gate forces ratio 1.0 on
// a zero baseline, which would mask a regression from 0.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/array.hpp"
#include "core/mapping.hpp"
#include "net/heartbeat.hpp"
#include "net/reliable.hpp"
#include "util/options.hpp"

using namespace mdo;

namespace {

struct Poke : core::Chare {
  std::int64_t value = 0;
  void add(std::int64_t by) { value += by; }
  void pup(Pup& p) override {
    Chare::pup(p);
    p | value;
  }
};

struct SweepRun {
  std::uint64_t suspects = 0;
  std::uint64_t false_kills = 0;  ///< confirmed deaths (nothing was killed)
  std::int64_t delivered = 0;
  sim::TimeNs heal_to_resume = 0;  ///< 0 when no quarantine resumed
  std::uint64_t peak_frames = 0;
};

SweepRun run_once(double latency_ms, sim::TimeNs start, sim::TimeNs length,
                  std::int64_t messages) {
  grid::Scenario s =
      grid::Scenario::artificial(5, sim::milliseconds(latency_ms))
          .with_clusters(3)
          .with_crashes();
  for (net::ClusterId other : {0, 1}) {
    s.with_partition(2, other, start, length);
    s.with_partition(other, 2, start, length);
  }
  auto machine = grid::make_machine(s);
  auto* sim = static_cast<core::SimMachine*>(machine.get());
  core::Runtime rt(std::move(machine));
  auto proxy = rt.create_array<Poke>(
      "pokes", core::indices_1d(5), core::round_robin_map(5),
      [](const core::Index&) { return std::make_unique<Poke>(); });

  const sim::TimeNs heal = start + length;
  sim->reliability().heartbeat->watch(heal + sim::seconds(1.0));
  rt.machine().call_after(start + sim::milliseconds(10.0), [&] {
    for (std::int64_t i = 0; i < messages; ++i) {
      proxy.send<&Poke::add>(core::Index(4), 1);
    }
  });
  rt.run();

  const net::ReliableDevice* rel = sim->reliability().reliable;
  const net::HeartbeatDevice* hb = sim->reliability().heartbeat;
  SweepRun out;
  out.suspects = hb->counters().suspects_raised;
  out.false_kills = hb->counters().peers_declared_dead;
  out.delivered = proxy.local(core::Index(4))->value;
  out.peak_frames = rel->counters().quarantine_peak_frames;
  if (rel->last_resume_at() > heal) {
    out.heal_to_resume = rel->last_resume_at() - heal;
  }
  return out;
}

void record(bench::JsonRecorder& rec, const std::string& len_field,
            const char* metric, double value) {
  obs::Json row = obs::Json::object();
  row.set("name", len_field + "ms/" + metric);
  row.set("real_ns", value);
  rec.add_run(std::move(row));
}

}  // namespace

int main(int argc, char** argv) {
  double latency_ms = 8.0;
  double start_ms = 50.0;
  std::int64_t messages = 40;
  std::vector<double> lengths = {10, 40, 80, 160, 640};
  bool csv = false;

  Options opts(
      "partition_sweep — false-kill rate and heal-to-resume time as the "
      "partition length crosses the detector's confirm window");
  opts.add_double("latency", &latency_ms, "base one-way WAN latency (ms)")
      .add_double("start", &start_ms, "partition start (ms)")
      .add_int("messages", &messages, "messages pumped at the isolated node")
      .add_double_list("lengths", &lengths,
                       "comma-separated partition lengths (ms)")
      .add_flag("csv", &csv, "emit CSV instead of an aligned table");
  if (!opts.parse(argc, argv)) return opts.error() ? 1 : 0;

  bench::JsonRecorder recorder("partition_sweep");
  recorder.config("latency_ms", latency_ms)
      .config("start_ms", start_ms)
      .config("messages", messages);

  // Report the sized windows once (identical across lengths).
  {
    grid::Scenario sized =
        grid::Scenario::artificial(5, sim::milliseconds(latency_ms))
            .with_clusters(3)
            .with_crashes();
    std::printf(
        "Partition sweep: 5 PEs / 3 clusters, base one-way %.1f ms, "
        "timeout %.1f ms, confirm window %.1f ms\n",
        latency_ms, sim::to_ms(sized.heartbeat.timeout),
        sim::to_ms(sized.heartbeat.confirm_window));
  }

  TextTable table({"len_ms", "suspects", "false_kills", "delivered",
                   "undelivered", "heal_to_resume_ms", "peak_frames"});
  for (const double len_ms : lengths) {
    char field[32];  // "80", "12.5": the row and JSON label
    std::snprintf(field, sizeof field, "%g", len_ms);
    SweepRun run = run_once(latency_ms, sim::milliseconds(start_ms),
                            sim::milliseconds(len_ms), messages);
    const std::int64_t undelivered = messages - run.delivered;
    table.add_row({field, std::to_string(run.suspects),
                   std::to_string(run.false_kills),
                   std::to_string(run.delivered),
                   std::to_string(undelivered),
                   fmt_double(sim::to_ms(run.heal_to_resume), 3),
                   std::to_string(run.peak_frames)});
    record(recorder, field, "false_kills_plus1",
           static_cast<double>(run.false_kills + 1));
    record(recorder, field, "undelivered_plus1",
           static_cast<double>(undelivered + 1));
    record(recorder, field, "suspects", static_cast<double>(run.suspects));
    record(recorder, field, "heal_to_resume_ns",
           static_cast<double>(run.heal_to_resume));
  }
  std::fputs((csv ? table.render_csv() : table.render()).c_str(), stdout);

  if (!recorder.write(".")) {
    std::fprintf(stderr, "failed to write %s\n", recorder.path(".").c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", recorder.path(".").c_str());
  return 0;
}
