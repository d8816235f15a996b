// Perf-regression gate: compares a freshly generated BENCH_<name>.json
// against the checked-in baseline and fails (exit 1) when any benchmark's
// adjusted wall time per iteration regresses beyond the tolerance.
//
//   perf_gate <current.json> <baseline.json> [tolerance]
//   perf_gate --exact <current.json> <baseline.json>
//
// tolerance is a fraction (default 0.15 = fail above baseline * 1.15);
// the MDO_PERF_TOLERANCE environment variable wins over the positional
// argument, so a dedicated runner can tighten (or a noisy one widen)
// the band without editing the ctest wiring.
// Benchmarks present in the baseline but missing from the current run
// are failures too — a silently dropped benchmark must not pass the
// gate. New benchmarks absent from the baseline are reported but pass.
//
// --exact is for rows that repeat to the last digit (virtual quantities
// of a seeded simulation). Every row must equal its baseline, so a row
// that moves either way fails, as does a row the baseline lacks: a
// change that moves a row, better or worse, re-records the baseline.
// It takes no tolerance, and MDO_PERF_TOLERANCE does not apply.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "obs/json.hpp"

namespace {

using mdo::obs::Json;

std::optional<Json> load(const char* path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return Json::parse(ss.str());
}

/// name -> real_ns from a BENCH_*.json "runs" array.
std::map<std::string, double> times(const Json& doc) {
  std::map<std::string, double> out;
  for (const Json& run : doc.at("runs").elements()) {
    out[run.at("name").as_string()] = run.at("real_ns").as_double();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool exact = argc > 1 && std::strcmp(argv[1], "--exact") == 0;
  if (exact) {
    --argc;
    ++argv;
  }
  if (argc < 3 || argc > (exact ? 3 : 4)) {
    std::fprintf(stderr,
                 "usage: perf_gate <current.json> <baseline.json> "
                 "[tolerance]\n"
                 "       perf_gate --exact <current.json> <baseline.json>\n");
    return 2;
  }
  double tolerance = 0.15;
  if (!exact) {
    if (argc == 4) tolerance = std::atof(argv[3]);
    if (const char* env = std::getenv("MDO_PERF_TOLERANCE")) {
      tolerance = std::atof(env);
    }
    if (tolerance <= 0.0) {
      std::fprintf(stderr, "perf_gate: bad tolerance\n");
      return 2;
    }
  }

  std::optional<Json> current = load(argv[1]);
  std::optional<Json> baseline = load(argv[2]);
  if (!current) {
    std::fprintf(stderr, "perf_gate: cannot read/parse %s\n", argv[1]);
    return 2;
  }
  if (!baseline) {
    std::fprintf(stderr, "perf_gate: cannot read/parse %s\n", argv[2]);
    return 2;
  }

  const std::map<std::string, double> cur = times(*current);
  const std::map<std::string, double> base = times(*baseline);

  int failures = 0;
  std::printf("%-44s %12s %12s %8s\n", "benchmark", "baseline_ns", "now_ns",
              "ratio");
  for (const auto& [name, base_ns] : base) {
    auto it = cur.find(name);
    if (it == cur.end()) {
      std::printf("%-44s %12.1f %12s %8s  MISSING\n", name.c_str(), base_ns,
                  "-", "-");
      ++failures;
      continue;
    }
    const double ratio = base_ns > 0.0 ? it->second / base_ns : 1.0;
    const bool failed =
        exact ? it->second != base_ns : ratio > 1.0 + tolerance;
    std::printf("%-44s %12.1f %12.1f %8.3f%s\n", name.c_str(), base_ns,
                it->second, ratio,
                failed ? (exact ? "  MOVED" : "  REGRESSED") : "");
    if (failed) ++failures;
  }
  for (const auto& [name, now_ns] : cur) {
    if (base.find(name) == base.end()) {
      std::printf("%-44s %12s %12.1f %8s  (new, no baseline)\n", name.c_str(),
                  "-", now_ns, "-");
      if (exact) ++failures;
    }
  }

  if (exact) {
    if (failures > 0) {
      std::printf("perf_gate: %d row(s) differ from the exact baseline\n",
                  failures);
      return 1;
    }
    std::printf("perf_gate: OK (exact)\n");
    return 0;
  }
  if (failures > 0) {
    std::printf("perf_gate: %d regression(s) beyond %.0f%% tolerance\n",
                failures, tolerance * 100.0);
    return 1;
  }
  std::printf("perf_gate: OK (tolerance %.0f%%)\n", tolerance * 100.0);
  return 0;
}
