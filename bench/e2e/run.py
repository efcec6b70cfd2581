#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark (see README.md here).

Run from the repository root.

One workload, one process (what BENCHMARK.json's command runs):
    python3 bench/e2e/run.py --workload steady --seed 1 --seconds 20 --trace 0
The last line of standard output is the driver's JSON result.

Every workload in sequence (what run.sh runs):
    python3 bench/e2e/run.py [--seed N] [--trace] [--repeat K] [--smoke]
prints the metric lines of each run, the min/median/max of each metric over
K runs, and writes .bench_build/e2e/results.json.

The driver is built in .bench_build/cmake from the repository's own CMake
build (e2e.cmake attaches the driver to it), with LUMOS_THREADS pinned to
min(4, available cores). Exit codes: 0 ok, 1 wrong output or failed build,
2 usage, 3 invalid run (the generator fell behind) after retries.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = ".bench_build"
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
OUT_DIR = os.path.join(BUILD_ROOT, "e2e")
DRIVER = os.path.join(CMAKE_DIR, "e2e", "lumos_e2e")
EXIT_INVALID = 3
INVALID_RETRIES = 2
RUN_BUDGET_S = 170  # all attempts at one run, so a run ends within 180 s
SMOKE_SECONDS = 4


def threads():
    return min(4, len(os.sched_getaffinity(0)))


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, log_path):
    with open(log_path, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode


def build():
    """Configures (once) and builds the driver; returns False on failure."""
    if not os.path.exists("CMakeLists.txt"):
        log("no CMakeLists.txt here: run from the repository root")
        return False
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append([
            "cmake", "-S", ".", "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release",
            "-DCMAKE_PROJECT_lumos5g_INCLUDE="
            + os.path.join(HERE, "e2e.cmake"),
        ])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "lumos_e2e",
                  "-j", str(threads())])
    for cmd in steps:
        if run_logged(cmd, log_path) != 0:
            with open(log_path) as f:
                sys.stderr.write("".join(f.readlines()[-40:]))
            log(f"build failed (full log: {log_path})")
            return False
    return True


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_driver(workload, seed, seconds, trace):
    """Runs one driver process, retrying an invalid run while the budget
    lasts. Returns (exit code, stdout lines)."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", OUT_DIR]
    env = dict(os.environ, LUMOS_THREADS=str(threads()))
    deadline = time.monotonic() + RUN_BUDGET_S
    for attempt in range(1 + INVALID_RETRIES):
        try:
            p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                               text=True,
                               timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log(f"{workload}: no result within {RUN_BUDGET_S} s")
            return 1, []
        if p.returncode != EXIT_INVALID:
            return p.returncode, p.stdout.splitlines()
        log(f"{workload}: invalid run (attempt {attempt + 1})")
    return EXIT_INVALID, []


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns its parsed JSON result, or exits with the
    driver's code."""
    code, lines = run_driver(workload, seed, seconds, trace)
    if code != 0 or not lines:
        log(f"{workload}: driver exited {code}")
        sys.exit(code or 1)
    result = json.loads(lines[-1])
    missing = expected_metrics(trace) ^ set(result["metrics"])
    if missing:
        log(f"{workload}: metrics differ from BENCHMARK.json: {sorted(missing)}")
        sys.exit(1)
    for line in lines[:-1]:
        print(line)
    return result


def workload_names():
    with open("BENCHMARK.json") as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def suite(args):
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    results = {}
    for name in workload_names():
        runs = []
        for k in range(args.repeat):
            for trace in ([False, True] if args.trace else [False]):
                t0 = time.monotonic()
                r = run_one(name, args.seed + k, seconds, trace)
                r["trace"] = trace
                r["seed"] = args.seed + k
                r["wall_s"] = round(time.monotonic() - t0, 3)
                runs.append(r)
        results[name] = runs
    if args.repeat > 1:
        print("\nworkload metric min median max unit  (over "
              f"{args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1})")
        for name, runs in results.items():
            for trace in ([False, True] if args.trace else [False]):
                chosen = [r for r in runs if r["trace"] == trace]
                for metric, m in chosen[0]["metrics"].items():
                    vals = [r["metrics"][metric]["value"] for r in chosen]
                    print(f"{name} {metric} {min(vals):.6g} "
                          f"{statistics.median(vals):.6g} {max(vals):.6g} "
                          f"{m['unit']}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.json"), "w") as f:
        json.dump({"threads": threads(), "seconds": seconds,
                   "results": results}, f, indent=1)
    log(f"wrote {os.path.join(OUT_DIR, 'results.json')}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1])
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not build():
        return 1
    if args.seconds is None:
        with open("BENCHMARK.json") as f:
            args.seconds = json.load(f)["run_seconds"]
    if args.workload is None:
        return suite(args)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    result = run_one(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
