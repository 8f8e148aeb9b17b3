"""Benchmark entry point: runs each workload in its own process.

    python3 perfbench/run.py --workload paper-4000 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 1

Run it from the root of a checkout; the package is imported from `src/`, so
nothing is installed. Each child process gets its BLAS threads pinned to the
number of CPUs this process may use, and fixed glibc malloc thresholds. A
child prints its environment, its exact work counts, the dense `eigh`
reference time and every metric with its unit; the last line is one JSON object with `correct`, `attempted`, `failed`
and the metrics BENCHMARK.json declares for the mode (end-to-end with
--trace 0, per-layer with --trace 1). With --workload all the last line
merges the workloads, metric names prefixed by the workload.

Exits non-zero, printing no result, if a child fails or the package is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# By default glibc maps large arrays fresh and unmaps them on free, with a
# threshold that moves as the process runs, so the first set-up in a process
# pays far more page faults than later ones. Fixed thresholds (32 MiB is the
# largest glibc adapts to by itself) keep freed memory for reuse and make
# every set-up in a run comparable.
MALLOC_VARS = {
    "MALLOC_MMAP_THRESHOLD_": str(32 * 1024 * 1024),
    "MALLOC_TRIM_THRESHOLD_": str(1024 * 1024 * 1024),
}


def child_env() -> dict:
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        env[var] = nproc
    env.update(MALLOC_VARS)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(name: str, args) -> tuple[int, list[str]]:
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def workload_names() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cauchygft benchmark")
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small graphs, for tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cauchygft", "__init__.py")):
        print("src/cauchygft not found: run from a checkout", file=sys.stderr)
        return 2
    names = workload_names() if args.workload == "all" else [args.workload]

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        code, lines = run_child(name, args)
        body = lines[:-1] if code == 0 else lines
        for line in body:
            print(line if len(names) == 1 else f"[{name}] {line}")
        if code != 0 or not lines:
            print(f"{name}: workload process exited with code {code}", file=sys.stderr)
            return code or 1
        result = json.loads(lines[-1])
        if len(names) == 1:
            print(lines[-1])
            return 0
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
