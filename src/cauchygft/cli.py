"""Command-line driver: factorize, partition, bench, filter.

Exit codes: 0 success (and verification within tolerance), 1 verification
failure, 2 input or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import bench as bench_mod
from .errors import CauchyGftError, InvalidParams
from .factorization import DENSE_LIMIT, FactorizedGft, factorize
from .filters import apply_layer, parse_filter_config
from .graph import barabasi_albert, build_laplacian, read_graph, write_graph
from .partition import build_plan
from .plan import MergePlan
from .sparsify import SparsifyPolicy, verify_spectral_bound

VERIFY_TOL = 1e-8


def _load_graph(args):
    if args.ba is not None:
        return barabasi_albert(*args.ba)
    if args.graph is None:
        raise CauchyGftError("provide a graph file or --ba N M SEED")
    return read_graph(args.graph)


def _plan_for(args, g):
    policy = None
    if args.sparsify is not None or args.sparsify_count is not None:
        policy = SparsifyPolicy(keep_fraction=args.sparsify, target_count=args.sparsify_count)
    return build_plan(
        g,
        max_levels=args.max_levels,
        force_levels=args.force_levels,
        sparsify=policy,
        seed=args.seed,
    )


def _add_plan_args(p):
    """The graph and plan-recipe arguments of factorize and partition."""
    p.add_argument("graph", nargs="?", help="graph file (edge-list format)")
    p.add_argument(
        "--ba", nargs=3, metavar=("N", "M", "SEED"), type=int,
        help="generate a preferential-attachment graph instead of reading a file",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-levels", type=int, default=8)
    p.add_argument("--force-levels", type=int, default=0,
                   help="accept the first splits unconditionally")
    p.add_argument("--sparsify", type=float, default=None,
                   help="interface keep fraction in (0, 1]")
    p.add_argument("--sparsify-count", type=int, default=None,
                   help="target bridge count per interface")


def cmd_factorize(args) -> int:
    g = _load_graph(args)
    if args.plan:
        plan = MergePlan.load(args.plan)
        g_used = g
    else:
        res = _plan_for(args, g)
        plan, g_used = res.plan, res.graph
    fact = factorize(g_used, plan, kind=args.kind)
    print(
        f"factorized n={g_used.n} leaves={len(plan.leaves)} "
        f"k={plan.max_interface_size} bridges={plan.total_bridges}"
    )
    if args.out:
        fact.save(args.out)
        print(f"wrote factorization to {args.out}")
    if args.plan_out:
        plan.save(args.plan_out)
        print(f"wrote plan to {args.plan_out}")
    if args.verify and g_used.n > DENSE_LIMIT:
        print(f"skipping verification: n={g_used.n} > {DENSE_LIMIT}")
    elif args.verify:
        lap = build_laplacian(g_used, args.kind).dense()
        w = np.linalg.eigvalsh(lap)
        lam_err = float(np.max(np.abs(np.sort(fact.lambda_final) - w)))
        rec = fact.reconstruct_operator(fact.lambda_final)
        rec_err = float(
            np.linalg.norm(rec - lap) / max(np.linalg.norm(lap), 1e-300)
        )
        print(f"max eigenvalue error: {lam_err:.3e}")
        print(f"relative reconstruction error: {rec_err:.3e}")
        if lam_err > VERIFY_TOL or rec_err > VERIFY_TOL:
            print(f"verification FAILED (tolerance {VERIFY_TOL:.0e})")
            return 1
        print("verification ok")
    if args.print_spectrum:
        print("eigenvalues:", " ".join(f"{v:.12g}" for v in fact.lambda_final))
    return 0


def cmd_partition(args) -> int:
    g = _load_graph(args)
    res = _plan_for(args, g)
    plan = res.plan
    print(
        f"plan: leaves={len(plan.leaves)} levels={plan.num_levels} "
        f"k={plan.max_interface_size} bridges={plan.total_bridges}"
    )
    if args.out:
        plan.save(args.out)
        print(f"wrote plan to {args.out}")
    if args.graph_out:
        write_graph(res.graph, args.graph_out)
        print(f"wrote graph to {args.graph_out}")
    report = {
        "n": g.n,
        "original_edges": g.num_edges,
        "sparsified_edges": res.graph.num_edges,
        "interfaces": {
            str(nid): len(edges) for nid, edges in plan.interfaces.items()
        },
    }
    if args.verify_bound:
        rep = verify_spectral_bound(
            build_laplacian(g), build_laplacian(res.graph),
            eps=args.eps, trials=args.trials, seed=args.seed,
        )
        report["bound"] = asdict(rep)
        print(
            f"quadratic-form ratios in [{rep.ratio_min:.3f}, {rep.ratio_max:.3f}] "
            f"({'pass' if rep.passed else 'fail'} at eps={rep.eps})"
        )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote report to {args.report}")
    return 0


def _int_grid(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s]


def cmd_bench(args) -> int:
    if args.sizes is not None:
        if args.n is not None:
            raise InvalidParams("--n sets the node count of a --cuts sweep only")
        records = bench_mod.bench_nodes(
            args.sizes, seed=args.seed, repeats=args.repeats,
        )
    else:
        n = bench_mod.CUT_N if args.n is None else args.n
        records = bench_mod.bench_cut(
            args.cuts, n=n, seed=args.seed, repeats=args.repeats,
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            bench_mod.write_csv(records, fh)
        print(f"wrote {len(records)} records to {args.out}")
    else:
        bench_mod.write_csv(records, sys.stdout)
    return 0


def cmd_filter(args) -> int:
    fact = FactorizedGft.load(args.factorization)
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = parse_filter_config(json.load(fh))
    x = np.loadtxt(args.signal, delimiter=",", ndmin=2)
    y = apply_layer(fact, cfg, x)
    np.savetxt(args.out, y, delimiter=",")
    print(f"filtered {x.shape[1]} channel(s) over {x.shape[0]} nodes -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cauchygft",
        description="Graph Fourier transforms as chains of localized Cauchy factors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="factorize a graph and optionally verify")
    _add_plan_args(p)
    p.add_argument("--plan", help="use a saved plan instead of building one")
    p.add_argument("--kind", choices=["combinatorial", "normalized"],
                   default="combinatorial")
    p.add_argument("--verify", action="store_true",
                   help=f"compare against the dense eigensolver (n <= {DENSE_LIMIT})")
    p.add_argument("--out", help="write the factorization JSON to exactly this path")
    p.add_argument("--plan-out", help="write the plan JSON here")
    p.add_argument("--print-spectrum", action="store_true")
    p.set_defaults(fn=cmd_factorize)

    p = sub.add_parser(
        "partition", help="build a merge plan, optionally sparsify and report"
    )
    _add_plan_args(p)
    p.add_argument("--out", help="plan JSON path")
    p.add_argument("--graph-out", help="write the (sparsified) graph here")
    p.add_argument("--report", help="JSON report path")
    p.add_argument("--verify-bound", action="store_true")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("bench", help="runtime scaling sweeps")
    grid = p.add_mutually_exclusive_group(required=True)
    grid.add_argument("--sizes", type=_int_grid,
                      help="node counts of a runtime-vs-n sweep (comma-separated)")
    grid.add_argument("--cuts", type=_int_grid,
                      help="interface sizes of a runtime-vs-k sweep at --n (comma-separated)")
    p.add_argument("--n", type=int,
                   help=f"node count of the --cuts sweep (default {bench_mod.CUT_N})")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("filter", help="apply a spectral filter layer to signals")
    p.add_argument("--factorization", required=True)
    p.add_argument("--config", required=True, help="filter config JSON")
    p.add_argument("--signal", required=True, help="CSV, one row per node")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_filter)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CauchyGftError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
