// wanbench: one WAN step-time workload, run, checked and reported.
//
//   wanbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--tiny] [--out-dir <dir>]
//
// Prints one `metric <name> <value> <unit>` line per metric, one
// `check <name> ok|FAILED ...` line per output check, and as the last
// line a JSON object {correct, attempted, failed, metrics}. Exit 2 on a
// usage error, without a result.

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "obs/json.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "wanbench: " << why << "\n"
            << "usage: wanbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--out-dir <dir>]\n";
  std::exit(2);
}

wanbench::Options parse(int argc, char** argv) {
  wanbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (arg == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value, &used);
        if (used != value.size()) usage("bad --seed " + value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value, &used);
        if (used != value.size() || !(opt.seconds > 0 && opt.seconds <= 120))
          usage("--seconds must be in (0, 120]");
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace must be 0 or 1");
        opt.trace = value == "1";
      } else if (arg == "--out-dir") {
        opt.out_dir = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const auto& name : wanbench::workload_names())
    known = known || name == opt.workload;
  if (!known) usage("unknown workload " + opt.workload);
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = wanbench::Clock::now();
  wanbench::Options opt = parse(argc, argv);
  opt.process_start = start;

  const wanbench::Report rep = wanbench::run_workload(opt);

  mdo::obs::Json metrics = mdo::obs::Json::object();
  for (const auto& m : rep.metrics) {
    std::cout << "metric " << m.name << " " << mdo::obs::Json(m.value).dump()
              << " " << m.unit << "\n";
    mdo::obs::Json entry = mdo::obs::Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  for (const auto& c : rep.checks) {
    std::cout << "check " << c.name << " " << (c.ok ? "ok" : "FAILED")
              << (c.detail.empty() ? "" : " " + c.detail) << "\n";
  }
  mdo::obs::Json result = mdo::obs::Json::object();
  result.set("correct", rep.correct);
  result.set("attempted", rep.attempted);
  result.set("failed", rep.failed);
  result.set("metrics", std::move(metrics));
  std::cout << result.dump() << std::endl;
  return 0;
}
