"""Smoke test: every workload at its tiny size, untraced and traced.

Runs the built benchmark binary and checks that each run prints every
metric BENCHMARK.json names for its mode as a `metric` line with the
listed unit, that the last line is the result object with the same
values, that every output check passed, and that the traced run wrote
its spans and trace summary (next to the binary, in smoke-out/).

    python3 smoke_test.py <path-to-wanbench-binary>
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def run_one(binary, out_dir, workload, trace, metrics):
    """Returns the failures of one run."""
    tag = f"{workload} trace={trace}"
    cmd = [binary, "--workload", workload, "--seed", "3", "--seconds", "0.5",
           "--trace", str(trace), "--tiny", "--out-dir", out_dir]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        return [f"{tag}: exit {proc.returncode}\n{proc.stderr}"]
    failures = []
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts[0] == "metric":
            printed[parts[1]] = (float(parts[2]), parts[3])
        elif parts[0] == "check" and parts[2] != "ok":
            failures.append(f"{tag}: {line}")
    for metric in metrics:
        name = metric["name"]
        if name not in printed or name not in result["metrics"]:
            failures.append(f"{tag}: metric {name} missing")
            continue
        if printed[name][1] != metric["unit"]:
            failures.append(f"{tag}: {name} unit {printed[name][1]}")
        if result["metrics"][name]["value"] != printed[name][0]:
            failures.append(f"{tag}: {name} line and JSON differ")
    if set(result["metrics"]) != {m["name"] for m in metrics}:
        failures.append(f"{tag}: metrics {sorted(result['metrics'])}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        failures.append(f"{tag}: result {lines[-1]}")
    if trace:
        stem = os.path.join(out_dir, f"{workload}-seed3")
        for suffix in (".spans.json", ".trace_summary.json"):
            try:
                with open(stem + suffix) as f:
                    json.load(f)
            except (OSError, ValueError) as err:
                failures.append(f"{tag}: {err}")
    return failures


def main():
    binary = sys.argv[1]
    with open(SPEC) as f:
        spec = json.load(f)
    out_dir = os.path.join(os.path.dirname(os.path.abspath(binary)), "smoke-out")
    os.makedirs(out_dir, exist_ok=True)
    failures = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            failures += run_one(binary, out_dir, workload["name"], trace, spec[key])
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
