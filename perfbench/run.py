#!/usr/bin/env python3
"""Entry point of the fxtraf benchmark (see README.md beside this file).

Run from the root of a checkout:

    python3 perfbench/run.py --workload serial-packet --seed 1 --seconds 35 --trace 0

builds the `fxbench` binary from source into .bench_build/ (Release),
runs one workload in a fresh process for --seconds worth of passes and
relays its output; the last line of stdout is the JSON result.  Without
--workload it runs all three workloads, each in its own process.  With
--trace 1 the same passes run with spans on, the result holds the
per-layer metrics, and fxbench writes the spans as Chrome trace-event
JSON to .bench_build/traces/<workload>-seed<n>.json.

    python3 perfbench/run.py --steadiness [--seconds 35] [--out FILE]

runs every workload 10 times in fresh processes, one round per seed from
1 to 10, with the workload order reversed on every other round, and
prints the median and quartiles of every end-to-end metric beside its
bound.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "fxbench"
PINS = BENCH_DIR / "pins.tsv"
WORKLOADS = ["serial-packet", "pdes-ring", "flow-scale"]
STEADINESS_RUNS = 10
# A run must end within 180 s; a hung fxbench is killed before that.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds fxbench; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" \
            not in cache.read_text(errors="replace"):
        # A build tree configured for another checkout cannot be reused.
        shutil.rmtree(BUILD_DIR)
    if not cache.exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "fxbench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            log("perfbench: build step failed: " + " ".join(step))
            if step is steps[0] and len(steps) == 2:
                # A failed configure leaves a cache behind; drop it so the
                # next attempt configures again.
                cache.unlink(missing_ok=True)
            return False
    return True


def fxbench_command(workload, seed, seconds, trace):
    return [str(BINARY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--pins", str(PINS)]


def run_fxbench(command, capture):
    """Runs fxbench to completion (killed after RUN_TIMEOUT_S)."""
    try:
        return subprocess.run(command, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE if capture else None,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: fxbench exceeded {RUN_TIMEOUT_S} s and was stopped")
        return None


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def steadiness(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {name: [] for name in bounds} for w in WORKLOADS}
    report = {"runs": STEADINESS_RUNS, "seconds": args.seconds, "host": None}
    failures = 0
    for r in range(STEADINESS_RUNS):
        order = WORKLOADS if r % 2 == 0 else list(reversed(WORKLOADS))
        seed = r + 1
        for w in order:
            done = run_fxbench(fxbench_command(w, seed, args.seconds, 0), True)
            result = last_json(done.stdout) if done else None
            if not (done and done.returncode == 0 and result
                    and result["correct"]):
                log(f"perfbench: {w} seed {seed} failed")
                failures += 1
                continue
            for name in bounds:
                values[w][name].append(result["metrics"][name]["value"])
            for line in done.stdout.splitlines():
                if line.startswith("host "):
                    report["host"] = json.loads(line[5:])
                    del report["host"]["seed"], report["host"]["workload"]
            log(f"round {r} {w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
    print(f"{'workload':<14} {'metric':<14} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for w in WORKLOADS:
        report[w] = {}
        for name, bound in bounds.items():
            v = values[w][name]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            report[w][name] = {"n": len(v), "median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": bound,
                               "values": v}
            print(f"{w:<14} {name:<14} {len(v):>3} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>7.4f} {bound:>6.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        return 1
    if args.steadiness:
        return steadiness(args)
    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        done = run_fxbench(
            fxbench_command(workload, args.seed, args.seconds, args.trace),
            False)
        status = status or (done.returncode if done else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
