#pragma once
// The benchmark's workloads. Each one is a closed batch job on one
// machine of at most two OS-level PEs (or a single-threaded simulation):
// build the machine, create the arrays, run a one-step boot phase and a
// short warm-up, then a measured window of many steps in equal phases,
// then check the outputs. Every call into the program is timed from
// outside.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"

namespace wanbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          ///< smoke-test sizes
  std::string out_dir = ".";  ///< where the traced run writes its files
  Clock::time_point process_start = Clock::now();
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< application steps run
  std::uint64_t failed = 0;     ///< steps of runs whose outputs failed a check
  std::vector<Metric> metrics;
  std::vector<CheckResult> checks;
};

const std::vector<std::string>& workload_names();

/// Untraced (opt.trace false): the end-to-end metrics. Traced: the
/// per-layer metrics, from a run built with Scenario::with_tracing()
/// plus an untraced run of the same phase structure.
Report run_workload(const Options& opt);

}  // namespace wanbench
