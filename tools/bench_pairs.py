"""Compare two checkouts on the benchmark in alternating pairs of runs.

Runs `perfbench/run.py --seed 0 --trace 0` (for the `run_seconds` that
`BENCHMARK.json` sets) in a parent checkout and in a change checkout, N
pairs per workload; even pairs run the parent first, odd pairs
the change, so drift on a shared host falls on both sides alike. For every
workload and every end-to-end metric that `BENCHMARK.json` (read from the
change checkout) declares, it prints both sides' medians and quartiles and
the pairs the change won, then two verdicts:

- claim: the change won at least 9 of 10 pairs and its median beats the
  parent's by more than the parent's interquartile range;
- bound: the change's median is no worse than the parent's by more than the
  metric's declared bound (a fraction of the parent's median).

It also compares the share of failed operations. A run that exits nonzero
or reports `correct: false` on either side stops the comparison with exit
2. The last line is one JSON object with every figure. Nothing is written
into either checkout's `perfbench/`; run.py itself keeps its scratch files
under `.bench_build/`.

    python3 tools/bench_pairs.py --parent ../parent --change . --pairs 10
    python3 tools/bench_pairs.py --parent . --change . --pairs 1 \\
        --workload quickstart-500 --smoke
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

CLAIM_WIN_SHARE = 0.9
SEED = 0  # run.py's graph seed on both sides


def run_once(checkout: str, workload: str, seconds: int, smoke: bool) -> dict:
    """One untraced run.py result: its last output line, parsed.

    A run that fails or reports `correct: false` raises RuntimeError.
    """
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: run.py --workload {workload} exited "
                           f"with code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: run.py --workload {workload} reported "
                           "correct: false")
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, quartiles, wins and both verdicts for one metric."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (parent - change) > 0: change better
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    gain = sign * (p_med - c_med)
    worse_frac = -gain / abs(p_med) if p_med else 0.0
    return {
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "wins": wins, "pairs": len(parent), "worse_frac": worse_frac,
        "claim_holds": (wins >= math.ceil(CLAIM_WIN_SHARE * len(parent))
                        and gain > p_q3 - p_q1),
        "bound": bound, "bound_holds": worse_frac <= bound,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the change checkout")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", default="all", help="a workload name, or all")
    ap.add_argument("--smoke", action="store_true", help="run.py's small graphs")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = ([w["name"] for w in bench["workloads"]] if args.workload == "all"
             else [args.workload])
    sides = {"parent": args.parent, "change": args.change}

    report = {}
    for name in names:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                print(f"{name}: pair {i + 1}/{args.pairs}, {side}", file=sys.stderr, flush=True)
                try:
                    runs[side].append(run_once(sides[side], name, bench["run_seconds"],
                                                args.smoke))
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
        failed = {side: sum(r["failed"] for r in rs) / max(sum(r["attempted"] for r in rs), 1)
                  for side, rs in runs.items()}
        entry = {"failed_share": failed,
                 "failed_holds": failed["change"] <= failed["parent"], "metrics": {}}
        print(f"{name}: failed share parent {failed['parent']:.3g}, "
              f"change {failed['change']:.3g}", flush=True)
        for metric in bench["end_to_end"]:
            values = {side: [r["metrics"][metric["name"]]["value"] for r in rs]
                      for side, rs in runs.items()}
            cmp = compare(values["parent"], values["change"], metric["better"],
                          metric["bound"])
            entry["metrics"][metric["name"]] = cmp
            p, c = cmp["parent"], cmp["change"]
            print(f"  {metric['name']:<12} parent {p['median']:.4g} [{p['q1']:.4g}, "
                  f"{p['q3']:.4g}]  change {c['median']:.4g} [{c['q1']:.4g}, "
                  f"{c['q3']:.4g}] {metric['unit']}  wins {cmp['wins']}/{cmp['pairs']}  "
                  f"worse by {cmp['worse_frac']:+.1%}  "
                  f"claim {'holds' if cmp['claim_holds'] else 'fails'}  "
                  f"bound {metric['bound']:.0%} {'holds' if cmp['bound_holds'] else 'fails'}",
                  flush=True)
        report[name] = entry
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
