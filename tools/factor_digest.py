"""Print sha256 digests of every factor array for benchmark plans.

Builds each graph and plan exactly as an untraced benchmark run does
(`perfbench/workload.py`: its workloads, graph seeds and plan recipes,
imported read-only), factorizes it, and prints one JSON line per plan with
the sha256 of `lambda_final`, of the leaf bases, of `level_lambdas` and of
every step's arrays (affected, origins, offsets, lambda_old, zhat, column
norms and signs, perm, reflectors): what a factor keeps. `fwd` and `inv`
hash `forward` and `inverse` of one seeded n x 3 block, so the serving
path (dense merge operators, the step walk) is covered too. Each line also
carries the plan's `content_hash()`, which covers the sampled bridge
weights, so a change in the resistance sketch shows where its output lands,
and `plan_json`, the sha256 of `json.dumps(plan.to_dict())`: the text
`MergePlan.save` writes, whose key order `content_hash` (keys sorted) misses.
Two checkouts whose lines match produced the same plans and factors bit for
bit. Each line also gives the plan's work counts (`plan_counts` in
`perfbench/workload.py`) and `counts_recorded`: whether they equal that
graph's entry in `perfbench/counts.json`, or null where the seed has none.
So a bits-and-counts check needs no timed benchmark run.

    PYTHONPATH=src python3 tools/factor_digest.py --workload quickstart-500 --seed 0 1
    PYTHONPATH=src python3 tools/factor_digest.py --workload all --seed 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workload import (  # noqa: E402
    WORKLOADS, graph_seeds, load_recorded, make_plan, plan_counts,
)

from cauchygft import barabasi_albert, factorize  # noqa: E402


def _feed(h, arr) -> None:
    """Hash an array with its dtype and shape, so a reshape or cast shows."""
    if arr is None:
        h.update(b"None;")
        return
    a = np.ascontiguousarray(arr)
    h.update(f"{a.dtype.str}{a.shape};".encode())
    h.update(a.tobytes())


def _step_arrays(step):
    f = step.factor
    sol = f.solution
    yield from (f.affected, sol.origins, sol.offsets, sol.lambda_old, f.zhat)
    yield from (f.column_norms, f.column_signs, step.perm)
    for blk in f.householder_blocks:
        yield np.array([blk.start, blk.stop])
        yield blk.reflector
        yield np.array([blk.first_sign])


def digests(fact) -> dict[str, str]:
    """sha256 per part of one factorized transform, plus one over all."""
    parts = {name: hashlib.sha256() for name in ("lambda_final", "leaf_bases",
                                                  "level_lambdas", "steps",
                                                  "fwd", "inv")}
    _feed(parts["lambda_final"], fact.lambda_final)
    for basis in fact.leaf_bases:
        _feed(parts["leaf_bases"], basis)
    for nid in sorted(fact.level_lambdas):
        parts["level_lambdas"].update(f"{nid};".encode())
        _feed(parts["level_lambdas"], fact.level_lambdas[nid])
    for rec in fact.history:
        h = parts["steps"]
        h.update(f"{rec.node_id},{rec.start},{rec.stop},{len(rec.steps)};".encode())
        _feed(h, rec.concat_perm)
        for step in rec.steps:
            for arr in _step_arrays(step):
                _feed(h, arr)
    x = np.random.default_rng(0).standard_normal((fact.n, 3))
    _feed(parts["fwd"], fact.forward(x))
    _feed(parts["inv"], fact.inverse(x))
    out = {name: h.hexdigest() for name, h in parts.items()}
    out["all"] = hashlib.sha256("".join(out.values()).encode()).hexdigest()
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        w = WORKLOADS[name]
        for seed in args.seed:
            recorded = load_recorded(name, seed)
            for i, s in enumerate(graph_seeds(seed, w.graphs)):
                res = make_plan(barabasi_albert(w.n, 2, s), w.recipe, s)
                fact = factorize(res.graph, res.plan)
                counts = plan_counts(res.plan, fact)
                line = {"workload": name, "seed": seed, "graph_seed": s,
                        "plan_hash": res.plan.content_hash(),
                        "plan_json": hashlib.sha256(
                            json.dumps(res.plan.to_dict()).encode()).hexdigest(),
                        "step_count": sum(len(r.steps) for r in fact.history),
                        **digests(fact), "counts": counts,
                        "counts_recorded": None if recorded is None
                        else counts == recorded[i]}
                print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
