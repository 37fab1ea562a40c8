#!/usr/bin/env python3
"""Builds and runs the serving benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds perfbench/ (and the serving libraries it compiles from
../src) into .bench_build/perfbench, then runs one workload; the last line of
stdout is the JSON result. --smoke runs every workload of BENCHMARK.json for
a couple of seconds in both modes and checks that each metric named there is
printed with its unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "juggler_perfbench")
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; progress goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return subprocess.call(
        ["cmake", "--build", BUILD_DIR, "--target", "juggler_perfbench",
         "-j", jobs], stdout=sys.stderr) == 0


def run_once(workload, seed, seconds, trace):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", WORK_DIR]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
            return 1, ""
        return proc.returncode, out


def smoke():
    """Every workload, both modes, a short run each: metric names and units
    must match BENCHMARK.json exactly and the outputs must be correct."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_once(workload, 1, 2, trace)
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            problems = []
            if code != 0:
                problems.append("exit %d" % code)
            if result is None:
                problems.append("no result line")
            else:
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v.get("unit") for k, v in result["metrics"].items()}
                if want != got:
                    problems.append("metrics differ: missing %s, extra %s" % (
                        sorted(set(want) - set(got)),
                        sorted(set(got) - set(want))))
                    problems += ["%s unit %s != %s" % (k, got[k], want[k])
                                 for k in want if k in got and got[k] != want[k]]
                if not result.get("correct"):
                    problems.append("outputs not correct")
            log("smoke %-15s trace=%d: %s" % (
                workload, trace, "; ".join(problems) if problems else "ok"))
            failures += len(problems) > 0
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or use --smoke)")
    if not build():
        log("perfbench: build failed")
        return 1
    if args.smoke:
        return smoke()
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
