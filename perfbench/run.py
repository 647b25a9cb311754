#!/usr/bin/env python3
"""Builds and runs hypertune's end-to-end benchmark (see README.md here).

    python3 perfbench/run.py --workload serve-durable --seed 1 \
        --seconds 20 --trace 0

Run from the root of a hypertune checkout. The first run configures and
builds perfbench/CMakeLists.txt (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild only what changed.
Build output and the benchmark's diagnostics go to stderr; the last line
of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits nonzero, printing no result, when the build or the run fails, and
nonzero (after the result) when an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
WORKLOADS = ("serve-durable", "sweep-golden", "sweep-fleet512")


def build(bench_dir, build_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", bench_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    repo_root = os.path.dirname(os.path.abspath(bench_dir))
    work_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(bench_dir, os.path.join(work_dir, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--repo-root", repo_root,
               "--work-dir", work_dir, "--bench-dir", bench_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print(f"run.py: no result (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1
    result["metrics"] = declared_metrics(result, args.trace)
    print(json.dumps(result))
    return proc.returncode if result["correct"] else (proc.returncode or 1)


def declared_metrics(result, trace):
    """The metrics BENCHMARK.json declares for this mode, in its order.

    A per-layer metric of a layer the workload does not run reads 0. A
    missing end-to-end metric, an undeclared one, or a unit that differs
    from the declaration marks the result incorrect.
    """
    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for spec in declared:
        name, unit = spec["name"], spec["unit"]
        metric = measured.get(name)
        if metric is None:
            if not trace:
                print(f"run.py: missing metric {name}", file=sys.stderr)
                result["correct"] = False
            metric = {"value": 0.0, "unit": unit}
        elif metric["unit"] != unit:
            print(f"run.py: {name} in {metric['unit']}, declared {unit}",
                  file=sys.stderr)
            result["correct"] = False
        metrics[name] = metric
    for name in set(measured) - set(metrics):
        print(f"run.py: undeclared metric {name}", file=sys.stderr)
        result["correct"] = False
    return metrics


if __name__ == "__main__":
    sys.exit(main())
