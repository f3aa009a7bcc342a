#!/usr/bin/env python3
"""Build and run the ttdc benchmark.

    python3 perfbench/run.py --workload <classic|metro|lifetime|campaign> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
libraries and the benchmark program (Release) under .bench_build/, or under
$CARGO_TARGET_DIR when set; later calls rebuild only what changed. Build
output goes to stderr, so the last line of stdout is the JSON
result. Exits non-zero without a result when the sources are missing or
the build fails, and with the program's exit code otherwise (1 when a
correctness check failed).
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("classic", "metro", "lifetime", "campaign")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the program; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: library sources not found under " + os.path.join(ROOT, "src"),
              file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "ttdc_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("error: build step failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "ttdc_perfbench")


def run_bench(binary, args, capture=False):
    """Runs the benchmark program with a private scratch dir; returns (code, stdout)."""
    tmpdir = os.path.join(os.path.dirname(binary), "tmp-%d" % os.getpid())
    cmd = [binary] + args + ["--tmpdir", tmpdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
        return proc.returncode, proc.stdout or ""
    except subprocess.TimeoutExpired:
        print("error: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    binary = build()
    if binary is None:
        return 2
    code, _ = run_bench(binary, ["--workload", args.workload, "--seed", str(args.seed),
                                 "--seconds", repr(args.seconds),
                                 "--trace", str(args.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())
