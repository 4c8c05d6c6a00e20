#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload bsgf|sgf-sharded|serve-rw \
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seed N] [--seconds S]
  python3 perfbench/run.py --selftest

The benchmark and the library it drives are built from source (perfbench/
and src/) with CMake into the directory named by CARGO_TARGET_DIR
(default .bench_build). Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. `--workload all`
runs every workload untraced and then traced, one after another, and
exits non-zero if any run does (e.g. on a wrong answer). --selftest runs
the benchmark's own tests and checks that the metrics it reports are the
ones BENCHMARK.json lists, and that perfbench/meta.json maps every
per-layer metric to the end-to-end metrics it should move.
"""
import argparse
import fnmatch
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 175
WORKLOADS = ("bsgf", "sgf-sharded", "serve-rw")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(root):
    src = os.path.join(root, "src")
    has_sources = os.path.isdir(src) and any(
        name.endswith(".cc") for _, _, files in os.walk(src) for name in files)
    if not has_sources:
        fail("no library sources under src/; run from the repository root")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        step(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", build_dir, "-j", jobs])
    return build_dir


def step(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build step failed: " + " ".join(cmd))


def selftest(root, build_dir):
    if subprocess.run([os.path.join(build_dir, "perfbench_test")]).returncode:
        fail("perfbench_test failed", 1)
    listed = subprocess.run([os.path.join(build_dir, "perfbench"),
                             "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    reported = {"end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        reported[kind].append((name, unit))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for kind in reported:
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != reported[kind]:
            ok = False
            print("perfbench: BENCHMARK.json %s differs from the metrics the "
                  "benchmark reports:\n  declared %s\n  reported %s"
                  % (kind, declared, reported[kind]), file=sys.stderr)
    with open(os.path.join(root, "perfbench", "meta.json")) as f:
        patterns = [p for entry in json.load(f)["layer_to_end_to_end"]
                    for p in entry["metrics"]]
    for name, _ in reported["per_layer"]:
        if not any(fnmatch.fnmatchcase(name, p) for p in patterns):
            ok = False
            print("perfbench: per-layer metric %s is missing from "
                  "perfbench/meta.json layer_to_end_to_end" % name,
                  file=sys.stderr)
    if not ok:
        sys.exit(1)
    print("perfbench: selftest passed")


def main():
    root = os.getcwd()
    build_dir = build(root)
    if sys.argv[1:] == ["--selftest"]:
        selftest(root, build_dir)
        return 0
    binary = os.path.join(build_dir, "perfbench")
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload")
    parser.add_argument("--trace")
    known, rest = parser.parse_known_args(sys.argv[1:])
    if known.workload != "all":
        return run(binary, sys.argv[1:])
    worst = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            sys.stdout.flush()
            rc = run(binary, ["--workload", workload, "--trace", trace] + rest)
            worst = worst or rc
    return worst


def run(binary, args):
    try:
        return subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 124)


if __name__ == "__main__":
    sys.exit(main())
