"""One benchmark workload, run in its own process (started by run.py).

A workload is a graph recipe: Barabasi-Albert graphs of one size, made from
the seed, and the plan recipe a user of that size would call. An untraced
run warms up at full size, sets up each graph once (build_plan, then
factorize), factorizes its plan again where the workload asks for repeats,
checks every result against the dense oracle, and reports the end-to-end
metrics. A traced run takes the first graph only: it sets it up
once untraced and once under the tracer, then serves from the traced
transform (single-column transforms, filter blocks, a save/load round trip)
and reports the per-layer metrics.

Usage (normally through run.py, which pins BLAS threads and malloc):

    python3 perfbench/workload.py --workload serve-2000 --seed 3 --seconds 10 --trace 1
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy

from cauchygft import (
    FactorizedGft,
    FilterLayerConfig,
    SparsifyPolicy,
    barabasi_albert,
    build_laplacian,
    build_plan,
    dense_eig,
    factorize,
    filters,
    heat_filter,
)
from cauchygft.secular import secular_residuals
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

VERIFY_TOL = 1e-8  # the CLI's --verify tolerance
FILTER_COLS = 64
HEAT_T, ROOT_T = 1.0, 0.5  # global heat filter, root-node heat filter
WARMUP_SEED = 12345
SERVE_WARMUP_N = 200
TRANSFORM_POOL = 8  # distinct single-column inputs cycled while serving
P90_CALLS = 100  # transform calls for ten beyond the 90th percentile


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    recipe: str  # "paper": 2 forced levels, k=5 sparsified; "default": build_plan(g, seed)
    graphs: int  # graphs set up per untraced run; graph 0 is barabasi_albert(n, 2, seed)
    factorize_reps: int = 1  # factorize calls per graph in an untraced run


# Set-up time depends on each plan's shape (leaf sizes, bridge count), which
# changes from seed to seed; an untraced run reports medians over several
# graphs so that one seed's shape does not set the whole figure. The counts
# keep one untraced run near a minute at n=4000. At n=2000 one factorize
# (~1.8 s) swings by +-15% between calls on the same plan on a shared
# 2-core host, so serve-2000 factorizes each plan twice and factorize_s is
# the median of all eight calls.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-4000", 4000, "paper", graphs=2),
        Workload("quickstart-500", 500, "default", graphs=3),
        Workload("serve-2000", 2000, "paper", graphs=4, factorize_reps=2),
    )
}
SMOKE_N = {"paper-4000": 160, "quickstart-500": 60, "serve-2000": 120}


def smoke(w: Workload) -> Workload:
    return replace(w, n=SMOKE_N[w.name], graphs=2)


def graph_seeds(seed: int, count: int) -> list[int]:
    """Graph 0 uses the seed itself; the others get disjoint derived seeds."""
    extra = np.random.SeedSequence([seed, 0xBE7C]).generate_state(max(count - 1, 0))
    return [seed] + [int(s) for s in extra]


def make_plan(g, recipe: str, seed: int):
    if recipe == "paper":
        return build_plan(
            g, force_levels=2, max_levels=2,
            sparsify=SparsifyPolicy(target_count=5), seed=seed,
        )
    return build_plan(g, seed=seed)


def plan_counts(plan, fact: FactorizedGft) -> dict:
    """Exact work counts; equal seeds must reproduce them."""
    m2 = sum(
        step.factor.solution.lambda_old.size ** 2
        for rec in fact.history
        for step in rec.steps
    )
    return {
        "leaves": len(plan.leaves),
        "bridges": plan.total_bridges,
        "max_interface": plan.max_interface_size,
        "m2_sum": int(m2),
    }


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


@dataclass(eq=False)
class Ledger:
    """Checked operations: every timed call counts, a failed check fails it."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ops: int, problem: str | None) -> None:
        self.attempted += ops
        if problem is not None:
            self.failed += ops
            self.problems.append(problem)


@dataclass(eq=False)
class Instance:
    """One graph with its oracle data, filled in as the run proceeds."""

    seed: int
    graph: object
    lap: object = None  # sparse Laplacian of the graph the plan factorizes
    lam: np.ndarray | None = None  # dense oracle eigenvalues
    basis: np.ndarray | None = None  # dense oracle eigenvectors, if timed
    x: np.ndarray | None = None  # single-column inputs, n x TRANSFORM_POOL
    lx: np.ndarray | None = None


def setup(inst: Instance, recipe: str, tracer: Tracer | None = None):
    """build_plan then factorize; returns (plan result, transform, plan_s, factorize_s)."""
    call = (lambda name, fn, *a: tracer.span(name, fn, *a)) if tracer else (
        lambda name, fn, *a: fn(*a)
    )
    t0 = time.perf_counter()
    res = call("build_plan", make_plan, inst.graph, recipe, inst.seed)
    t1 = time.perf_counter()
    fact = call("factorize", factorize, res.graph, res.plan)
    t2 = time.perf_counter()
    return res, fact, t1 - t0, t2 - t1


def attach_oracle(inst: Instance, res, timed: bool) -> float | None:
    """Dense oracle of the planned graph; returns the eigh time if timed.

    Untimed oracles take eigenvalues only, which is about twice as fast.
    """
    lap = build_laplacian(res.graph)
    inst.lap = lap.matrix
    elapsed = None
    if timed:
        t0 = time.perf_counter()
        inst.lam, inst.basis = dense_eig(lap)
        elapsed = time.perf_counter() - t0
    else:
        inst.lam = np.linalg.eigvalsh(lap.dense())
    rng = np.random.default_rng([inst.seed, 1])
    inst.x = rng.standard_normal((inst.graph.n, TRANSFORM_POOL))
    inst.lx = inst.lap @ inst.x
    return elapsed


def check_setup(inst: Instance, res, fact, expected: dict | None, ledger: Ledger) -> dict:
    """Eigenvalues, one forward/inverse pair and the work counts of one set-up.

    The set-up and the two transform calls are three checked operations.
    """
    counts = plan_counts(res.plan, fact)
    lam_err = float(np.max(np.abs(np.sort(fact.lambda_final) - inst.lam)))
    problem = None
    if lam_err > VERIFY_TOL:
        problem = f"seed {inst.seed}: eigenvalue error {lam_err:.3e}"
    elif expected is not None and counts != expected:
        problem = f"seed {inst.seed}: counts {counts} differ from recorded {expected}"
    ledger.record(1, problem)
    transform_pair(inst, fact, 0, ledger, [])
    return counts


def transform_pair(inst: Instance, fact, j: int, ledger: Ledger, times: list[float]):
    """forward then inverse of lambda * coefficients; must give L x.

    Appends both call times to `times`, in milliseconds.
    """
    x = inst.x[:, j]
    t0 = time.perf_counter()
    coeffs = fact.forward(x)
    t1 = time.perf_counter()
    y = fact.inverse(fact.lambda_final * coeffs)
    t2 = time.perf_counter()
    times += [(t1 - t0) * 1e3, (t2 - t1) * 1e3]
    err = rel_err(y, inst.lx[:, j])
    ledger.record(2, None if err <= VERIFY_TOL else
                  f"seed {inst.seed}: inverse(lambda*forward(x)) vs Lx error {err:.3e}")


def filter_config(fact) -> FilterLayerConfig:
    return FilterLayerConfig(
        global_filter=heat_filter(HEAT_T),
        node_filters={fact.plan.root_id: heat_filter(ROOT_T)},
    )


def serve(inst: Instance, fact, seconds: float, ledger: Ledger, workdir: str) -> dict:
    """Steady state on one transform: transforms, filter blocks, save/load.

    Single-column forward/inverse pairs run for two thirds of `seconds` and
    on until P90_CALLS calls (at most 2 x `seconds`), then 64-column filter
    blocks for a third of `seconds`; at least one of each. The filter oracle,
    U exp(-(HEAT_T + ROOT_T) lambda) U^T X from the dense eigenbasis, is
    computed before timing (scipy's expm_multiply takes ~20 s at n=4000).
    """
    block = np.random.default_rng([inst.seed, 2]).standard_normal((inst.graph.n, FILTER_COLS))
    decay = np.exp(-(HEAT_T + ROOT_T) * inst.lam)
    want = inst.basis @ (decay[:, None] * (inst.basis.T @ block))
    cfg = filter_config(fact)

    times: list[float] = []
    start = time.perf_counter()
    while not times or (
        time.perf_counter() - start < 2.0 * seconds
        and (time.perf_counter() - start < 2.0 * seconds / 3.0 or len(times) < P90_CALLS)
    ):
        transform_pair(inst, fact, (len(times) // 2) % TRANSFORM_POOL, ledger, times)

    t_filter, cols = 0.0, 0
    while cols == 0 or t_filter < seconds / 3.0:
        t0 = time.perf_counter()
        out = filters.apply_layer(fact, cfg, block)
        t_filter += time.perf_counter() - t0
        cols += FILTER_COLS
        err = rel_err(out, want)
        ledger.record(1, None if err <= VERIFY_TOL else
                      f"seed {inst.seed}: filter block error {err:.3e}")

    path = os.path.join(workdir, "transform.json")
    t0 = time.perf_counter()
    fact.save(path)
    t1 = time.perf_counter()
    loaded = FactorizedGft.load(path)
    t2 = time.perf_counter()
    file_mb = os.path.getsize(path) / 1e6
    os.remove(path)
    same = np.array_equal(loaded.forward(inst.x), fact.forward(inst.x))
    ledger.record(2, None if same else f"seed {inst.seed}: forward differs after save/load")

    p50, p90 = percentiles(times)
    return {
        "serve.transform_p50_ms": (p50, "ms"),
        "serve.transform_p90_ms": (p90, "ms"),
        "serve.transform_calls": (len(times), "count"),
        "serve.filter_cols_per_s": (cols / t_filter, "1/s"),
        "serve.save_s": (t1 - t0, "s"),
        "serve.load_s": (t2 - t1, "s"),
        "serve.file_mb": (file_mb, "MB"),
    }


def percentiles(samples: list[float]) -> tuple[float, float]:
    """Median and 90th percentile of at least two samples."""
    q = statistics.quantiles(samples, n=10, method="inclusive")
    return statistics.median(samples), q[8]


def warm_up(w: Workload, trace: bool, ledger: Ledger, workdir: str) -> None:
    """Run the workload's path once before timing anything.

    The set-up runs at full size on a graph no run times, so lazy imports
    settle and the heap grows to its working size; otherwise the first timed
    set-up in a process runs about a third slower than the rest. A traced
    run also walks the serving path once, on a small graph; those checks
    count like any others.
    """
    inst = Instance(seed=WARMUP_SEED, graph=barabasi_albert(w.n, 2, WARMUP_SEED))
    res, fact, _, _ = setup(inst, w.recipe)
    fact.inverse(fact.forward(np.ones(w.n)))
    if trace:
        inst = Instance(seed=WARMUP_SEED, graph=barabasi_albert(
            min(SERVE_WARMUP_N, w.n), 2, WARMUP_SEED))
        res, fact, _, _ = setup(inst, w.recipe)
        attach_oracle(inst, res, timed=True)
        serve(inst, fact, 0.0, ledger, workdir)


def run_untraced(w: Workload, seed: int, recorded: list | None, ledger: Ledger):
    """Set up each graph, then check it and let it go before the next one.

    setup_s is the median over graphs of build_plan plus the first factorize;
    factorize_s is the median over every factorize call, repeats included.
    A repeat is checked like the first call and must reproduce its counts.
    peak_rss_mb is read right after graph 0's set-up, before the dense
    oracle allocates n x n matrices: the memory one set-up needs.
    """
    plan_s, setup_fact_s, fact_s, counts = [], [], [], []
    peak_mb = ed_s = None
    for i, s in enumerate(graph_seeds(seed, w.graphs)):
        inst = Instance(seed=s, graph=barabasi_albert(w.n, 2, s))
        c0 = time.process_time()
        res, fact, tp, tf = setup(inst, w.recipe)
        print(f"graph {s} plan_s {tp:.4f} factorize_s {tf:.4f} "
              f"cpu_s {time.process_time() - c0:.4f}")
        plan_s.append(tp)
        setup_fact_s.append(tf)
        fact_s.append(tf)
        if i == 0:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ed_s = attach_oracle(inst, res, timed=True)
        else:
            attach_oracle(inst, res, timed=False)
        expected = recorded[i] if recorded else None
        counts.append(check_setup(inst, res, fact, expected, ledger))
        del fact
        for _ in range(w.factorize_reps - 1):
            t0 = time.perf_counter()
            again = factorize(res.graph, res.plan)
            fact_s.append(time.perf_counter() - t0)
            print(f"graph {s} repeat factorize_s {fact_s[-1]:.4f}")
            check_setup(inst, res, again, counts[-1], ledger)
            del again
    metrics = {
        "setup_s": (statistics.median(p + f for p, f in zip(plan_s, setup_fact_s)), "s"),
        "plan_s": (statistics.median(plan_s), "s"),
        "factorize_s": (statistics.median(fact_s), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return metrics, counts, ed_s


def run_traced(w: Workload, seed: int, seconds: float, recorded: list | None,
               ledger: Ledger, workdir: str):
    """Graph 0 untraced, then traced; the traced set-up must repeat its counts."""
    inst = Instance(seed=seed, graph=barabasi_albert(w.n, 2, seed))
    res0, fact0, tp0, tf0 = setup(inst, w.recipe)
    ed_s = attach_oracle(inst, res0, timed=True)
    counts0 = check_setup(inst, res0, fact0, recorded[0] if recorded else None, ledger)
    tracer = Tracer()
    with tracer:
        res, fact, tp, tf = setup(inst, w.recipe, tracer)
        counts = check_setup(inst, res, fact, counts0, ledger)
        served = serve(inst, fact, seconds, ledger, workdir)
    metrics = layer_metrics(tracer, res.plan, tf0)
    metrics.update(served)
    metrics["partition.plan_s"] = (tp0, "s")
    metrics["trace.overhead_frac"] = ((tp + tf) / (tp0 + tf0) - 1.0, "ratio")
    return metrics, [counts], ed_s


def layer_metrics(tr: Tracer, plan, untraced_factorize_s: float) -> dict:
    """Per-layer figures from the spans of one traced set-up and its serving."""
    self_s = tr.self_seconds()
    spans = tr.spans

    def self_of(name: str) -> float:
        return sum(self_s[i] for i, s in enumerate(spans) if s.name == name)

    def count(name: str) -> int:
        return len(tr.named(name))

    kept = [s.note for s in tr.named("sparsify_interface")]
    sols = [s.note for s in tr.named("solve_secular")]
    sizes = [sol.lambda_old.size for sol in sols]
    deflations = [s.note for s in tr.named("deflate")]
    apply_by_parent: dict[str, float] = {}
    for s in tr.named("apply_inplace"):
        parent = spans[s.parent].name if s.parent >= 0 else ""
        apply_by_parent[parent] = apply_by_parent.get(parent, 0.0) + s.seconds
    (fact_idx,) = [i for i, s in enumerate(spans) if s.name == "factorize"]
    fact_span = spans[fact_idx]
    under_fact = tr.under(fact_idx)
    residual = max(
        (float(np.max(secular_residuals(sol))) for sol in sols if sol.lambda_old.size),
        default=0.0,
    )
    return {
        "sparsify.resistance_s": (tr.total("estimate_resistances"), "s"),
        "sparsify.resistance_calls": (count("estimate_resistances"), "count"),
        "sparsify.kept_frac": (
            sum(k for k, _ in kept) / sum(c for _, c in kept) if kept else 1.0, "ratio"
        ),
        "sparsify.jl_dim": (max((s.note for s in tr.named("estimate_resistances")),
                                default=0), "count"),
        "partition.fiedler_s": (tr.total("fiedler_vector"), "s"),
        "partition.fiedler_calls": (count("fiedler_vector"), "count"),
        "partition.self_s": (self_of("build_plan"), "s"),
        "partition.leaves": (len(plan.leaves), "count"),
        "partition.max_leaf": (max(len(lv) for lv in plan.leaves), "count"),
        "partition.levels": (plan.num_levels, "count"),
        "plan.bridges": (plan.total_bridges, "count"),
        "plan.max_interface": (plan.max_interface_size, "count"),
        "secular.deflate_s": (tr.total("deflate"), "s"),
        "secular.dropped": (sum(d for d, _ in deflations), "count"),
        "secular.rotated": (sum(r for _, r in deflations), "count"),
        "secular.solve_s": (tr.total("solve_secular"), "s"),
        "secular.solve_calls": (len(sols), "count"),
        "secular.m2_sum": (sum(m * m for m in sizes), "count"),
        "secular.max_m": (max(sizes, default=0), "count"),
        "secular.max_residual": (residual, "ratio"),
        "secular.assemble_s": (tr.total("build_cauchy_factor"), "s"),
        "secular.propagate_s": (apply_by_parent.get("factorize", 0.0), "s"),
        "secular.history_apply_s": (
            sum(apply_by_parent.get(p, 0.0)
                for p in ("forward", "inverse", "hierarchical_mix")), "s"
        ),
        "factorization.leaf_eigh_s": (tr.total("leaf_eigh"), "s"),
        "factorization.leaf_n3_sum": (
            sum(s.note ** 3 for s in tr.named("leaf_eigh")), "count"
        ),
        "factorization.factorize_self_s": (self_s[fact_idx], "s"),
        "factorization.to_dict_s": (tr.total("to_dict"), "s"),
        "factorization.from_dict_s": (tr.total("from_dict"), "s"),
        "filters.mix_s": (tr.total("hierarchical_mix"), "s"),
        "filters.layer_self_s": (self_of("apply_layer"), "s"),
        "trace.factorize_sum_frac": (
            sum(self_s[i] for i in under_fact) / untraced_factorize_s, "ratio"
        ),
        "trace.factorize_named_frac": (
            1.0 - self_s[fact_idx] / fact_span.seconds, "ratio"
        ),
    }


def environment() -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def declared(trace: bool) -> dict[str, str]:
    """Metric names and units BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def load_recorded(name: str, seed: int) -> list | None:
    with open(os.path.join(HERE, "counts.json"), encoding="utf-8") as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def run(w: Workload, seed: int, seconds: float, trace: bool,
        recorded: list | None, workdir: str) -> dict:
    """Measure one workload: metrics, work counts, ED time and check totals."""
    ledger = Ledger()
    warm_up(w, trace, ledger, workdir)
    if trace:
        metrics, counts, ed_s = run_traced(w, seed, seconds, recorded, ledger, workdir)
    else:
        metrics, counts, ed_s = run_untraced(w, seed, recorded, ledger)
    return {
        "metrics": metrics, "counts": counts, "ed_s": ed_s,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "problems": ledger.problems,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small graphs, for tests")
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    recorded = None if args.smoke else load_recorded(w.name, args.seed)
    if args.smoke:
        w = smoke(w)
    want = declared(bool(args.trace))
    workdir = os.path.join(ROOT, ".bench_build", f"perfbench-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    warnings.simplefilter("ignore", UserWarning)  # LOBPCG non-convergence notes
    try:
        out = run(w, args.seed, args.seconds, bool(args.trace), recorded, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env", json.dumps(environment(), sort_keys=True))
    print(f"workload {w.name} n={w.n} seed={args.seed} trace={args.trace}")
    print("counts", json.dumps(out["counts"]))
    print(f"ed_s {out['ed_s']:.6f} s (dense eigh of graph 0, reference only)")
    print(f"failed_ops_frac {out['failed'] / out['attempted']:.6g} "
          f"({out['failed']} of {out['attempted']} checked operations)")
    for problem in out["problems"]:
        print("FAILED", problem)
    for name, (value, unit) in out["metrics"].items():
        print(f"metric {name} {value!r} {unit}")

    result = {}
    for name, unit in want.items():
        value, have_unit = out["metrics"][name]
        if have_unit != unit:
            raise ValueError(f"{name}: measured in {have_unit}, declared {unit}")
        result[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
