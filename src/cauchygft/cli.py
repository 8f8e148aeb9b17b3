"""Command-line driver: factorize, bench, filter, partition, sparsify.

Exit codes: 0 success (and verification within tolerance), 1 verification
failure, 2 input or configuration errors. CAUCHY_GFT_SEED provides the seed
when --seed is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bench as bench_mod
from .errors import CauchyGftError, ConfigMismatch
from .factorization import DENSE_LIMIT, FactorizedGft, factorize
from .filters import (
    FilterBank,
    BankFilter,
    FilterLayerConfig,
    heat_filter,
    poly_filter,
    apply_layer,
)
from .graph import barabasi_albert, build_laplacian, dense_eig, read_graph, write_graph
from .partition import CostModel, build_plan
from .plan import MergePlan
from .sparsify import SparsifyPolicy, verify_spectral_bound

VERIFY_TOL = 1e-8


def _default_seed() -> int:
    return int(os.environ.get("CAUCHY_GFT_SEED", "0"))


def _load_graph(args):
    if args.ba is not None:
        n, m, seed = args.ba
        return barabasi_albert(int(n), int(m), int(seed))
    if args.graph is None:
        raise CauchyGftError("provide a graph file or --ba N M SEED")
    return read_graph(args.graph)


def _policy_from_args(args) -> SparsifyPolicy | None:
    rho = getattr(args, "sparsify", None)
    target = getattr(args, "sparsify_count", None)
    if rho is None and target is None:
        return None
    return SparsifyPolicy(
        keep_fraction=rho, target_count=target, eps_jl=args.eps_jl
    )


def _plan_for(args, g):
    cost = CostModel(eig_coeff=args.eig_const, merge_coeff=args.merge_const)
    return build_plan(
        g,
        cost=cost,
        max_levels=args.max_levels,
        force_levels=args.force_levels,
        sparsify=_policy_from_args(args),
        seed=args.seed,
    )


def _add_graph_args(p):
    p.add_argument("graph", nargs="?", help="graph file (edge-list format)")
    p.add_argument(
        "--ba", nargs=3, metavar=("N", "M", "SEED"), type=int,
        help="generate a preferential-attachment graph instead of reading a file",
    )


def _add_plan_args(p):
    p.add_argument("--max-levels", type=int, default=8)
    p.add_argument("--force-levels", type=int, default=0,
                   help="accept the first splits unconditionally")
    p.add_argument("--sparsify", type=float, default=None,
                   help="interface keep fraction in (0, 1]")
    p.add_argument("--sparsify-count", type=int, default=None,
                   help="target bridge count per interface")
    p.add_argument("--eps-jl", type=float, default=0.5)
    p.add_argument("--eig-const", type=float, default=1.0)
    p.add_argument("--merge-const", type=float, default=1.0)


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
    if args.verify:
        if g_used.n > DENSE_LIMIT:
            print(f"skipping verification: n={g_used.n} > {DENSE_LIMIT}")
            return 0
        w, _ = dense_eig(build_laplacian(g_used, args.kind))
        lam_err = float(np.max(np.abs(np.sort(fact.lambda_final) - w)))
        lap = build_laplacian(g_used, args.kind).dense()
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
    return 0


def cmd_sparsify(args) -> int:
    g = _load_graph(args)
    if args.sparsify is None and args.sparsify_count is None:
        args.sparsify = 0.5
    res = _plan_for(args, g)
    plan = res.plan
    kept = plan.total_bridges
    print(f"interfaces: {len(plan.interfaces)}, retained bridges: {kept}")
    if args.out:
        write_graph(res.graph, args.out)
        print(f"wrote sparsified graph to {args.out}")
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
        report["bound"] = {
            "eps": rep.eps, "ratio_min": rep.ratio_min, "ratio_max": rep.ratio_max,
            "dense_extremes": rep.dense_extremes, "passed": rep.passed,
        }
        print(
            f"quadratic-form ratios in [{rep.ratio_min:.3f}, {rep.ratio_max:.3f}] "
            f"({'pass' if rep.passed else 'fail'} at eps={rep.eps})"
        )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote report to {args.report}")
    return 0


def cmd_bench(args) -> int:
    if args.mode == "nodes":
        sizes = [int(s) for s in args.sizes.split(",") if s]
        records = bench_mod.bench_nodes(
            sizes, m=args.m, seed=args.seed, repeats=args.repeats,
            k_target=args.k, levels=args.levels,
            ed_max=args.ed_max, verify_max=args.verify_max,
        )
    else:
        cuts = [int(s) for s in args.cuts.split(",") if s]
        records = bench_mod.bench_cut(
            cuts, n=args.n, m=args.m, seed=args.seed,
            repeats=args.repeats, levels=args.levels,
        )
    if args.out:
        bench_mod.write_csv(records, args.out)
        print(f"wrote {len(records)} records to {args.out}")
    else:
        print(bench_mod.CSV_HEADER)
        for rec in records:
            print(rec.csv_row())
    return 0


def _filter_from_config(data, where: str = "filter config"):
    """One filter from its JSON config; ConfigMismatch names a bad field."""
    if not isinstance(data, dict):
        raise ConfigMismatch(f"{where} must be a JSON object, not {type(data).__name__}")
    try:
        kind = data["kind"]
        if kind == "poly":
            return poly_filter(data["coefficients"])
        if kind == "heat":
            return heat_filter(float(data.get("t", 1.0)))
        if kind == "unit":
            return FilterLayerConfig().global_filter
        if kind not in ("spline", "rbf"):
            raise ConfigMismatch(
                f"{where} field 'kind' is {kind!r}, not poly, heat, unit, spline or rbf"
            )
        bank = FilterBank.from_dict(data)
        return BankFilter(bank, index=data.get("filter_index", 0))
    except KeyError as exc:
        raise ConfigMismatch(f"{where} has no field {exc.args[0]!r}") from exc
    except (TypeError, AttributeError) as exc:
        raise ConfigMismatch(f"malformed {where} ({type(exc).__name__}: {exc})") from exc


def cmd_filter(args) -> int:
    fact = FactorizedGft.load(args.factorization)
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg_data = json.load(fh)
    if isinstance(cfg_data, dict) and ("global" in cfg_data or "nodes" in cfg_data):
        nodes = cfg_data.get("nodes", {})
        if not isinstance(nodes, dict):
            raise ConfigMismatch(
                f"filter config field 'nodes' must map node ids to filters, "
                f"not be a {type(nodes).__name__}"
            )
        cfg = FilterLayerConfig(
            global_filter=_filter_from_config(
                cfg_data.get("global", {"kind": "unit"}), "global filter config"
            ),
            node_filters={
                int(nid): _filter_from_config(spec, f"filter config of node {nid}")
                for nid, spec in nodes.items()
            },
        )
    else:
        cfg = FilterLayerConfig(global_filter=_filter_from_config(cfg_data))
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
    _add_graph_args(p)
    _add_plan_args(p)
    p.add_argument("--plan", help="use a saved plan instead of building one")
    p.add_argument("--kind", choices=["combinatorial", "normalized"],
                   default="combinatorial")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--verify", action="store_true",
                   help=f"compare against the dense eigensolver (n <= {DENSE_LIMIT})")
    p.add_argument("--out", help="write the factorization JSON to exactly this path")
    p.add_argument("--plan-out", help="write the plan JSON here")
    p.add_argument("--print-spectrum", action="store_true")
    p.set_defaults(fn=cmd_factorize)

    p = sub.add_parser("partition", help="build and save a merge plan")
    _add_graph_args(p)
    _add_plan_args(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="plan JSON path")
    p.add_argument("--graph-out", help="write the (sparsified) graph here")
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("sparsify", help="sparsify interfaces and report")
    _add_graph_args(p)
    _add_plan_args(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="sparsified graph path")
    p.add_argument("--report", help="JSON report path")
    p.add_argument("--verify-bound", action="store_true")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(fn=cmd_sparsify)

    p = sub.add_parser("bench", help="runtime scaling sweeps")
    p.add_argument("--mode", choices=["nodes", "cut"], required=True)
    p.add_argument("--sizes", default="500,1000,2000",
                   help="node counts for mode=nodes (comma-separated)")
    p.add_argument("--cuts", default="2,4,8,16",
                   help="interface sizes for mode=cut (comma-separated)")
    p.add_argument("--n", type=int, default=8000, help="node count for mode=cut")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--k", type=int, default=5, help="interface size for mode=nodes")
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ed-max", type=int, default=None,
                   help="skip the dense baseline above this n")
    p.add_argument("--verify-max", type=int, default=0,
                   help="record eigenvalue error for n up to this")
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
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        args.seed = _default_seed()
    try:
        return args.fn(args)
    except (CauchyGftError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
