#!/usr/bin/env python3
"""Small-size self-test of the ttdc benchmark.

    python3 perfbench/selftest.py

Builds the benchmark, then runs every workload at small size (--small,
1 second) untraced twice and traced once, and checks that:
  * each run exits 0 and reports correct=true with no failed operation;
  * the untraced runs print every end-to-end metric of BENCHMARK.json and
    the traced run every per-layer metric, each with its declared unit;
  * the determinism digest repeats across the two untraced runs and
    matches the traced run's.
Exits 1 if any check failed.
"""
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the sibling build-and-run script)


def declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def run_small(binary, workload, trace):
    code, out = run.run_bench(binary, ["--workload", workload, "--seed", "7",
                                       "--seconds", "1", "--trace", str(trace),
                                       "--small"], capture=True)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    digests = [m.group(1) for m in (re.match(r"digest ([0-9a-f]{16})", l) for l in lines) if m]
    return code, result, digests


def main():
    binary = run.build()
    if binary is None:
        return 1
    expected = {0: declared("end_to_end"), 1: declared("per_layer")}
    failures = []
    for workload in run.WORKLOADS:
        seen = []
        for trace in (0, 0, 1):
            code, result, digests = run_small(binary, workload, trace)
            label = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None or not result["correct"] or result["failed"]:
                failures.append(label + ": run failed (exit %d)" % code)
                continue
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                failures.append(label + ": metric names or units differ from BENCHMARK.json")
            seen.append(digests[:1])
        if len(seen) == 3 and not (seen[0] == seen[1] == seen[2] and seen[0]):
            failures.append(workload + ": digests differ: %s" % seen)
        print("%-9s %s" % (workload, "ok" if not any(f.startswith(workload)
                                                    for f in failures) else "FAILED"))
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
