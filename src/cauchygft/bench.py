"""Runtime-scaling benchmarks: factorization vs dense eigendecomposition.

Two sweeps mirror the synthetic experiments: runtime vs node count at a
fixed interface size, and runtime vs interface size at a fixed node count.
Methods: CF (leaf solves + hierarchical merge), ED (dense symmetric
eigensolver on the same graph), PRE (spectral cut + sparsification only).
Each cell reports the median of `repeats` timed runs after one discarded
warm-up. Where ED ran, the CF row's max_err compares its eigenvalues with
the ones the timed dense solve returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .factorization import factorize
from .graph import barabasi_albert, build_laplacian, dense_eig
from .partition import build_plan
from .sparsify import SparsifyPolicy

CSV_HEADER = "n,k,seed,method,time_s,max_err"
LEVELS = 2  # forced partition depth of every sweep cell
CUT_N = 8000  # node count of a cut sweep unless the caller sets one


@dataclass(frozen=True)
class BenchRecord:
    n: int
    k: int
    seed: int
    method: str  # ED | CF | PRE
    time_s: float
    max_err: float | None

    def csv_row(self) -> str:
        err = "" if self.max_err is None else repr(self.max_err)
        return f"{self.n},{self.k},{self.seed},{self.method},{self.time_s!r},{err}"


def median_time(fn, repeats: int) -> tuple[float, object]:
    """Median wall time over `repeats` runs, one warm-up discarded."""
    if repeats < 1:
        raise InvalidParams(f"repeats must be >= 1, got {repeats}")
    result = fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), result


def _sweep_cell(
    n: int,
    m: int,
    seed: int,
    k_target: int,
    levels: int,
    repeats: int,
    run_ed: bool,
) -> list[BenchRecord]:
    g = barabasi_albert(n, m, seed)
    policy = SparsifyPolicy(target_count=k_target)

    def preprocess():
        return build_plan(
            g, force_levels=levels, max_levels=levels, sparsify=policy, seed=seed
        )

    t_pre, res = median_time(preprocess, repeats)
    plan, g_sparse = res.plan, res.graph
    k_actual = plan.max_interface_size

    t_cf, fact = median_time(lambda: factorize(g_sparse, plan), repeats)

    records = [
        BenchRecord(n, k_actual, seed, "PRE", t_pre, None),
    ]
    max_err = None
    if run_ed:
        lap = build_laplacian(g_sparse)
        t_ed, eig = median_time(lambda: dense_eig(lap), repeats)
        max_err = float(
            np.max(np.abs(np.sort(fact.lambda_final) - eig[0]))
        )
        records.append(BenchRecord(n, k_actual, seed, "ED", t_ed, None))
    records.append(BenchRecord(n, k_actual, seed, "CF", t_cf, max_err))
    return records


def bench_nodes(
    sizes: list[int],
    m: int = 2,
    seed: int = 0,
    repeats: int = 3,
    k_target: int = 5,
    levels: int = LEVELS,
    ed_max: int | None = None,
) -> list[BenchRecord]:
    """Runtime vs n at fixed interface size (CF, ED and PRE series)."""
    if not sizes:
        raise InvalidParams("size grid must be nonempty")
    out: list[BenchRecord] = []
    for n in sizes:
        run_ed = ed_max is None or n <= ed_max
        out.extend(
            _sweep_cell(
                n, m, seed, k_target, levels, repeats,
                run_ed=run_ed,
            )
        )
    return out


def bench_cut(
    cuts: list[int],
    n: int = CUT_N,
    m: int = 2,
    seed: int = 0,
    repeats: int = 3,
) -> list[BenchRecord]:
    """Runtime vs interface size at fixed n (CF and PRE series)."""
    if not cuts:
        raise InvalidParams("cut grid must be nonempty")
    out: list[BenchRecord] = []
    for k in cuts:
        out.extend(
            _sweep_cell(
                n, m, seed, k, LEVELS, repeats,
                run_ed=False,
            )
        )
    return out


def write_csv(records: list[BenchRecord], fh) -> None:
    """Write the header and one row per record to an open text stream."""
    fh.write(CSV_HEADER + "\n")
    for rec in records:
        fh.write(rec.csv_row() + "\n")


def loglog_slope(xs: list[float], ts: list[float]) -> float:
    """Least-squares slope of log(t) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=np.float64))
    lt = np.log(np.asarray(ts, dtype=np.float64))
    return float(np.polyfit(lx, lt, 1)[0])


def series(records: list[BenchRecord], method: str, key: str = "n"):
    """(x, time) pairs for one method, sorted by the chosen key."""
    picked = [(getattr(r, key), r.time_s) for r in records if r.method == method]
    picked.sort()
    return [p[0] for p in picked], [p[1] for p in picked]
