"""Greedy merge-plan construction: Fiedler bisection under a cost rule.

A split is accepted only when the modeled factorization work it leaves
behind beats a dense eigendecomposition of the block:

    merge(n, k) + max(eig(n_1), eig(n_2)) < eig(n),

with k the interface size after any sparsification. Cuts come from a
quantile sweep over the Fiedler vector; disconnected blocks split along
components with empty interfaces.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np
from scipy.sparse.linalg import lobpcg

from .errors import ConvergenceFailure, Disconnected, InvalidParams
from .graph import Graph, build_laplacian, dense_eig
from .plan import MergePlan, PlanNode
from .sparsify import SparsifyPolicy, apply_policy

DEFAULT_QUANTILES = tuple(np.linspace(0.45, 0.55, 11))
_DENSE_FIEDLER_N = 64
_DENSE_FALLBACK_N = 2048
_FIEDLER_ITERS = 40
# unit coefficients of eig(n) = n^3 and merge(n, k) = n^2 k; uncalibrated
EIG_COEFF = 1.0
MERGE_COEFF = 1.0


@dataclass(eq=False)
class CutCandidate:
    side_a: np.ndarray
    side_b: np.ndarray
    crossing_edges: list[tuple[int, int, float]]


@dataclass(eq=False)
class PlanResult:
    plan: MergePlan
    graph: Graph  # equals the input unless interfaces were sparsified


def _split_pays(n: int, n_a: int, n_b: int, k: int) -> bool:
    """merge(n, k) + max(eig(n_a), eig(n_b)) < eig(n)."""
    lhs = MERGE_COEFF * float(n) ** 2 * k + max(
        EIG_COEFF * float(n_a) ** 3, EIG_COEFF * float(n_b) ** 3
    )
    return lhs < EIG_COEFF * float(n) ** 3


def fiedler_vector(g: Graph, seed: int = 0) -> np.ndarray:
    """Unit eigenvector of the second-smallest combinatorial Laplacian eigenvalue.

    LOBPCG (block size 2, Jacobi preconditioner, constant null vector
    deflated, _FIEDLER_ITERS iterations) with a dense fallback for small
    blocks and for failed or non-converged ones up to _DENSE_FALLBACK_N
    nodes. A larger non-converged block returns the best iterate with a
    warning, since bisection only needs the sign structure; a larger block
    whose LOBPCG raised leaves none and raises ConvergenceFailure.
    """
    if g.n < 2:
        raise InvalidParams("Fiedler vector needs at least two nodes")
    if not g.is_connected():
        raise Disconnected("Fiedler vector of a disconnected graph")
    lap = build_laplacian(g)
    null = np.ones(g.n)
    null /= np.linalg.norm(null)

    def dense_path() -> np.ndarray:
        _, u = dense_eig(lap)
        return u[:, 1].copy()

    if g.n <= _DENSE_FIEDLER_N:
        v = dense_path()
    else:
        mat = lap.matrix
        diag = mat.diagonal()
        minv = 1.0 / diag[:, None]  # connected and past _DENSE_FIEDLER_N: no zero degree
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal((g.n, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                vals, vecs = lobpcg(
                    mat,
                    x0,
                    M=lambda x: minv * x,
                    Y=null[:, None],
                    largest=False,
                    maxiter=_FIEDLER_ITERS,
                    tol=1e-10 * max(1.0, float(diag.max())),
                )
            except ValueError:  # numpy's LinAlgError included
                vals, vecs = None, None
        res = np.inf
        if vecs is not None:
            pick = int(np.argmin(vals))
            v = vecs[:, pick]
            res = np.linalg.norm(mat @ v - vals[pick] * v) / max(abs(float(vals[pick])), 1e-30)
        if res > 5e-2:
            if g.n <= _DENSE_FALLBACK_N:
                v = dense_path()
            elif vecs is None:
                raise ConvergenceFailure(f"Fiedler LOBPCG left no iterate on {g.n} nodes")
            else:
                warnings.warn(
                    f"Fiedler LOBPCG residual {res:.2e} after {_FIEDLER_ITERS} "
                    "iterations; returning best iterate"
                )
    return _finalize_fiedler(v, null)


def _finalize_fiedler(v: np.ndarray, null: np.ndarray) -> np.ndarray:
    v = v - (null @ v) * null
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise InvalidParams("degenerate Fiedler iterate")
    v = v / nrm
    # deterministic global sign
    lead = v[np.argmax(np.abs(v))]
    return v if lead >= 0.0 else -v


def bisect(g: Graph, seed: int = 0) -> CutCandidate:
    """Sweep DEFAULT_QUANTILES over the Fiedler order; fewest crossing edges wins.

    Ties break toward balance closest to 1/2, then the lower quantile.
    """
    v = fiedler_vector(g, seed=seed)
    order = np.argsort(v, kind="stable")
    rank = np.empty(g.n, dtype=np.int64)
    rank[order] = np.arange(g.n)
    best = None
    for q in DEFAULT_QUANTILES:
        m_a = min(max(int(round(q * g.n)), 1), g.n - 1)
        in_a = rank < m_a
        crossing = int(np.sum(in_a[g.uu] != in_a[g.vv]))
        key = (crossing, abs(m_a / g.n - 0.5), q)
        if best is None or key < best[0]:
            best = (key, m_a)
    _, m_a = best
    in_a = rank < m_a
    mask = in_a[g.uu] != in_a[g.vv]
    crossing_edges = [
        (int(u), int(v), float(w))
        for u, v, w in zip(g.uu[mask], g.vv[mask], g.ww[mask])
    ]
    return CutCandidate(
        side_a=np.flatnonzero(in_a),
        side_b=np.flatnonzero(~in_a),
        crossing_edges=crossing_edges,
    )


def build_plan(
    g: Graph,
    max_levels: int = 8,
    sparsify: SparsifyPolicy | None = None,
    seed: int = 0,
    force_levels: int = 0,
) -> PlanResult:
    """Recursive bisection under the cost rule; returns plan + (sparsified) graph.

    Every cut sweeps DEFAULT_QUANTILES. force_levels accepts the first
    `force_levels` splits unconditionally (benchmark plans with a fixed
    shape); max_levels caps tree depth. The degenerate outcome is a
    single-leaf plan, i.e. one dense solve. Tree nodes are numbered
    children first, leaves left to right.
    """
    rng = np.random.default_rng(seed)
    leaves: list[np.ndarray] = []
    tree: list[PlanNode] = []
    interfaces: dict[int, list[tuple[int, int, float]]] = {}

    def leaf(nodes: np.ndarray) -> int:
        nid = len(tree)
        tree.append(PlanNode(id=nid, children=None, leaf=len(leaves)))
        leaves.append(np.sort(nodes))
        return nid

    def split(left: np.ndarray, right: np.ndarray, depth: int, bridges) -> int:
        a = recurse(left, depth + 1)
        b = recurse(right, depth + 1)
        nid = len(tree)
        tree.append(PlanNode(id=nid, children=(a, b), leaf=None))
        if bridges:
            interfaces[nid] = sorted(
                bridges, key=lambda e: (min(e[0], e[1]), max(e[0], e[1]))
            )
        return nid

    def recurse(nodes: np.ndarray, depth: int) -> int:
        if nodes.size < 2 or depth >= max_levels:
            return leaf(nodes)
        sub = g.induced_subgraph(nodes)
        comps = sub.connected_components()
        if len(comps) > 1:
            # components bridge with zero edges: pack into two balanced bins
            sizes = sorted(
                range(len(comps)), key=lambda i: (-comps[i].size, int(comps[i][0]))
            )
            bin_a: list[int] = []
            bin_b: list[int] = []
            tot_a = tot_b = 0
            for ci in sizes:
                if tot_a <= tot_b:
                    bin_a.append(ci)
                    tot_a += comps[ci].size
                else:
                    bin_b.append(ci)
                    tot_b += comps[ci].size
            left = np.sort(np.concatenate([nodes[comps[i]] for i in bin_a]))
            right = np.sort(np.concatenate([nodes[comps[i]] for i in bin_b]))
            return split(left, right, depth, [])
        sub_seed = int(rng.integers(1 << 62))
        cand = bisect(sub, seed=sub_seed)
        crossing_local = cand.crossing_edges
        if sparsify is not None:
            spars = apply_policy(sub, crossing_local, sparsify, seed=sub_seed + 1)
            kept_local = spars.kept_edges
        else:
            kept_local = crossing_local
        k_eff = len(kept_local)
        forced = depth < force_levels
        if not forced and not _split_pays(
            nodes.size, cand.side_a.size, cand.side_b.size, k_eff
        ):
            return leaf(nodes)
        bridges = [
            (int(nodes[u]), int(nodes[v]), float(w)) for u, v, w in kept_local
        ]
        return split(nodes[cand.side_a], nodes[cand.side_b], depth, bridges)

    recurse(np.arange(g.n, dtype=np.int64), 0)
    plan = MergePlan(
        n=g.n,
        leaves=leaves,
        tree=tree,
        interfaces=interfaces,
        config={
            "seed": seed,
            "max_levels": max_levels,
            "force_levels": force_levels,
            "quantiles": [float(q) for q in DEFAULT_QUANTILES],
            "cost": {"eig_coeff": EIG_COEFF, "merge_coeff": MERGE_COEFF},
            "sparsify": None if sparsify is None else asdict(sparsify),
        },
    )
    out_graph = g if sparsify is None else _rebuild_graph(g, plan)
    plan.validate(out_graph)
    return PlanResult(plan=plan, graph=out_graph)


def _rebuild_graph(g: Graph, plan: MergePlan) -> Graph:
    """Original intra-leaf edges plus the plan's (reweighted) interfaces."""
    same_leaf = plan.leaf_of[g.uu] == plan.leaf_of[g.vv]
    u, v, w, _ = plan.bridge_arrays()
    kept = np.column_stack([g.uu[same_leaf], g.vv[same_leaf], g.ww[same_leaf]])
    return Graph.from_edges(g.n, np.vstack([kept, np.column_stack([u, v, w])]), g.self_loops)
