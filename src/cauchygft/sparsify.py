"""Interface sparsification: resistance sketches, importance sampling, bound checks.

Crossing edges are kept with probability proportional to w_e * R_e (leverage
scores), reweighted by 1/(q p_e) so the sampled interface Laplacian is
unbiased. Effective resistances come from a random-sign projection of the
weighted incidence pushed through Laplacian solves; exact pseudoinverse
resistances are available as the small-n oracle.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from scipy.sparse.csgraph import connected_components

from .errors import (
    DimensionMismatch,
    Disconnected,
    EmptyInterface,
    InvalidParams,
    SolverNotConverged,
)
from .graph import Graph, Laplacian, build_laplacian

JL_MIN_DIM = 20
# widest column block of one resistance-sketch PCG solve. Every CG column
# evolves on its own (per-column step sizes, axis-0 reductions), so the
# width moves speed and memory, never bits. It also sets the buffers each
# worker is given, (E + 6n) doubles per column at most; 64 columns keep them
# small and give every CPU blocks to solve. Blocks are split evenly below
# this width: a 1-column block would reduce as a contiguous vector (pairwise
# sums) and change the rounding.
_SKETCH_COLS = 64
# elements per chunk of the random-sign draw and of the resistance read-out.
# Chunks of whole rows take the generator's stream in the order one full
# draw does, and every resistance sums its own row, so any size gives the
# same bits; it bounds the int64 and float64 temporaries of either pass.
_SIGN_CHUNK_ELEMS = 1 << 18
# relative residual and iteration cap of every resistance-sketch PCG column
_PCG_TOL = 1e-8
_PCG_MAXITER = 1000
# largest n whose spectral-bound report adds the dense generalized extremes
_BOUND_DENSE_N = 300


@dataclass(eq=False)
class ResistanceEstimate:
    """Approximate effective resistances; values[i] belongs to edges[i]."""

    edges: list[tuple[int, int]]
    values: np.ndarray
    projection_dim: int
    epsilon_jl: float


@dataclass(eq=False)
class SparsifiedInterface:
    kept_edges: list[tuple[int, int, float]]
    original_count: int
    sample_count: int


@dataclass(eq=False)
class SpectralBoundReport:
    eps: float
    ratio_min: float
    ratio_max: float
    dense_extremes: bool
    passed: bool


def _csr_matmul_into(a: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = a @ x for a dense block, written into out and allocating nothing.

    `a @ x` zero-fills a fresh array and runs SciPy's csr_matvecs kernel on
    it; this runs the same kernel on out after zero-filling it, so the bits
    are those of `a @ x`. x and out must be C-contiguous float64 blocks.
    """
    m, n = a.shape
    c = out.shape[-1]
    if not (
        a.format == "csr"
        and a.dtype == x.dtype == out.dtype == np.float64
        and x.shape == (n, c)
        and out.shape == (m, c)
        and x.flags.c_contiguous
        and out.flags.c_contiguous
    ):
        raise ValueError("csr product needs C-contiguous float64 (n, c) and (m, c) blocks")
    out.fill(0.0)
    _sparsetools.csr_matvecs(m, n, c, a.indptr, a.indices, a.data, x.ravel(), out.ravel())
    return out


def _jacobi_inverse(lap: sp.csr_matrix) -> np.ndarray:
    """1 / diag(lap) as an (n, 1) column: the block PCG's preconditioner."""
    diag = lap.diagonal()
    if np.any(diag <= 0.0):
        raise SolverNotConverged("nonpositive diagonal; graph must have edges")
    return 1.0 / diag[:, None]


def _jacobi_block_pcg(
    lap: sp.csr_matrix,
    rhs: np.ndarray,
    tol: float,
    maxiter: int,
    work: list[np.ndarray] | None = None,
    rows: np.ndarray | None = None,
    minv: np.ndarray | None = None,
):
    """PCG with diagonal preconditioning on all RHS columns at once.

    The Laplacian is singular (constant null space on a connected graph);
    right-hand sides must be orthogonal to 1 and search directions are kept
    there, which fixes the solution up to an irrelevant constant shift.
    Returns the solution and the number of columns still above tol after
    maxiter iterations (0 when every column converged).

    The solution x is iterated only at `rows` (sorted node indices; all
    nodes when None), since no other iterate reads it. The iterates x, r, z,
    p and the sparse product q live in five flat float64 buffers (`work`,
    made here when None), each viewed as a contiguous array: x as
    (len(rows), c), the others as (n, c). A caller that solves many blocks
    passes the same buffers, sized for its widest block, and the Jacobi
    column `minv` (`_jacobi_inverse(lap)`, made here when None) to every
    call; the returned solution is then a view of work[0], and no array
    with n rows is allocated here. Each element sees the ufuncs of the
    update written with fresh arrays (IEEE products and sums commute), the
    product is `lap @ p`'s kernel, and every column norm is
    np.linalg.norm's axis-0 sum of squares, so the result is bit for bit
    that of the fresh-array loop, at the requested rows.
    """
    n, c = rhs.shape
    m = n if rows is None else rows.size
    if work is None:
        work = [np.empty(m * c)] + [np.empty(n * c) for _ in range(4)]
    x = work[0][: m * c].reshape(m, c)
    r, z, p, q = (buf[: n * c].reshape(n, c) for buf in work[1:])
    # z is dead from the top of an iteration until it is recomputed from r,
    # so it is the scratch of the residual norms and of alpha * p[rows]
    step = work[2][: m * c].reshape(m, c)
    if minv is None:
        minv = _jacobi_inverse(lap)
    x.fill(0.0)
    np.copyto(r, rhs)
    np.multiply(minv, r, out=z)
    z -= z.mean(axis=0, keepdims=True)
    np.copyto(p, z)
    rz = np.einsum("ij,ij->j", r, z)
    bnorm = np.sqrt(np.add.reduce(np.multiply(rhs, rhs, out=q), axis=0))
    bnorm[bnorm == 0.0] = 1.0

    def residual_norms() -> np.ndarray:
        return np.sqrt(np.add.reduce(np.multiply(r, r, out=z), axis=0))

    for _ in range(maxiter):
        active = residual_norms() > tol * bnorm
        if not np.any(active):
            return x, 0
        _csr_matmul_into(lap, p, q)
        pq = np.einsum("ij,ij->j", p, q)
        alpha = np.where(active & (pq > 0.0), rz / np.where(pq == 0.0, 1.0, pq), 0.0)
        # mode="clip" gathers straight into step; the default mode buffers
        p_rows = p if rows is None else np.take(p, rows, axis=0, out=step, mode="clip")
        x += np.multiply(alpha, p_rows, out=step)
        r -= np.multiply(alpha, q, out=q)
        np.multiply(minv, r, out=z)
        z -= z.mean(axis=0, keepdims=True)
        rz_new = np.einsum("ij,ij->j", r, z)
        beta = np.where(rz > 0.0, rz_new / np.where(rz == 0.0, 1.0, rz), 0.0)
        p *= beta
        p += z
        rz = rz_new
    return x, int(np.sum(residual_norms() / bnorm > tol))


def _weighted_incidence_t(g: Graph) -> sp.csr_matrix:
    """B_w^T as an n x E CSR matrix, so the sketch's right-hand side is B_w^T S.

    Rows of B_w have +sqrt(w) at u and -sqrt(w) at v. Row i of B_w^T lists
    +sqrt(w) for the edges with u = i, then -sqrt(w) for those with v = i,
    each in edge order: its product then sums every entry of B_w^T S in the
    order of np.add.at over u and then v, bit for bit.
    """
    heads = np.concatenate([g.uu, g.vv])
    order = np.argsort(heads, kind="stable")
    root_w = np.sqrt(g.ww)
    edge = np.arange(g.num_edges)
    return sp.csr_matrix(
        (
            np.concatenate([root_w, -root_w])[order],
            np.concatenate([edge, edge])[order],
            np.searchsorted(heads[order], np.arange(g.n + 1)),
        ),
        shape=(g.n, g.num_edges),
    )


def jl_dimension(n: int, eps_jl: float) -> int:
    return max(JL_MIN_DIM, math.ceil(24.0 * math.log(max(n, 2)) / eps_jl**2))


def _sketch_workers() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def estimate_resistances(
    g: Graph,
    edges: list[tuple[int, int]],
    eps_jl: float = 0.5,
    seed: int = 0,
) -> ResistanceEstimate:
    """Sketched effective resistances R_e = ||Z(e_u - e_v)||^2.

    Z projects the weighted incidence through Laplacian solves with a
    +-1/sqrt(k) random-sign matrix of k = max(20, ceil(24 log n / eps^2))
    rows; each solve is a Jacobi PCG to relative residual _PCG_TOL within
    _PCG_MAXITER iterations, and SolverNotConverged reports the columns
    that miss it. The sketch spans the whole graph; estimates are reported
    for the requested edges.

    Memory: the signs are kept as bytes (E * k), the solution only at the
    requested edges' endpoints (endpoints x k doubles), and each worker
    solves its column blocks in (E + 6n) * _SKETCH_COLS doubles at most,
    allocated once per sketch by the calling thread: its block's signs as
    doubles (E), the right-hand side (n), the solution at the endpoints (at
    most n) and the PCG's r, z, p and sparse product (4n). Per iteration a
    worker allocates only per-column scalars and NumPy's fixed-size ufunc
    buffers.
    """
    if not g.is_connected():
        raise Disconnected("resistance estimation requires a connected graph")
    req = [(int(u), int(v)) for u, v, *_ in edges]
    k = jl_dimension(g.n, eps_jl)
    nb = -(-k // _SKETCH_COLS)
    blocks = [slice(k * i // nb, k * (i + 1) // nb) for i in range(nb)]
    width = max(b.stop - b.start for b in blocks)
    # one contiguous E x w array of +-1 bytes per column block, filled from
    # row chunks of the one sign stream
    signs = [np.empty((g.num_edges, b.stop - b.start), dtype=np.int8) for b in blocks]
    rng = np.random.default_rng(seed)
    rows = max(1, _SIGN_CHUNK_ELEMS // k)
    for s in range(0, g.num_edges, rows):
        chunk = rng.integers(0, 2, size=(min(rows, g.num_edges - s), k))
        chunk *= 2
        chunk -= 1
        for cols, block in zip(blocks, signs):
            block[s : s + rows] = chunk[:, cols]
    # +-1 * (1/sqrt(k)) is +-(1/sqrt(k)), the bits of +-1 / sqrt(k)
    scale = 1.0 / math.sqrt(k)
    bt = _weighted_incidence_t(g)
    lap = build_laplacian(g).matrix
    minv = _jacobi_inverse(lap)
    ends = np.array(req, dtype=np.int64).reshape(-1, 2)
    nodes, where = np.unique(ends, return_inverse=True)
    where = where.reshape(ends.shape)
    kept = np.empty((nodes.size, k))

    # worker i solves blocks i, i + workers, ... in buffers allocated here,
    # on the calling thread: freed, their memory returns to the heap that
    # this thread's later work reuses, not to a worker thread's arena, and
    # a worker allocates no array with n or E rows
    workers = min(_sketch_workers(), nb)
    buffers = [
        (
            np.empty(g.num_edges * width),
            np.empty(g.n * width),
            [np.empty(nodes.size * width)] + [np.empty(g.n * width) for _ in range(4)],
        )
        for _ in range(workers)
    ]

    def solve(i: int) -> int:
        expand, rhs, work = buffers[i]
        unconverged = 0
        for b in range(i, nb, workers):
            y = expand[: signs[b].size].reshape(signs[b].shape)
            np.multiply(signs[b], scale, out=y)
            yt = _csr_matmul_into(bt, y, rhs[: g.n * y.shape[1]].reshape(g.n, -1))
            x, left = _jacobi_block_pcg(
                lap, yt, _PCG_TOL, _PCG_MAXITER, work=work, rows=nodes, minv=minv
            )
            kept[:, blocks[b]] = x
            unconverged += left
        return unconverged

    with ThreadPoolExecutor(max_workers=workers) as pool:
        unconverged = sum(pool.map(solve, range(workers)))
    if unconverged:
        raise SolverNotConverged(
            f"block PCG: {unconverged} of {k} columns above tol after "
            f"{_PCG_MAXITER} iterations"
        )
    vals = np.empty(len(req))
    for s in range(0, len(req), rows):
        diff = kept[where[s : s + rows, 0]] - kept[where[s : s + rows, 1]]
        vals[s : s + rows] = np.sum(diff * diff, axis=1)
    return ResistanceEstimate(
        edges=req, values=vals, projection_dim=k, epsilon_jl=eps_jl
    )


def exact_resistances(g: Graph, edges: list[tuple[int, int]]) -> np.ndarray:
    """Pseudoinverse oracle: (e_u - e_v)^T L^+ (e_u - e_v); small n only."""
    if not g.is_connected():
        raise Disconnected("effective resistance requires a connected graph")
    pinv = np.linalg.pinv(build_laplacian(g).dense())
    return np.array(
        [pinv[u, u] + pinv[v, v] - 2.0 * pinv[u, v] for u, v, *_ in edges]
    )


def _check_sampling_mode(keep_fraction, target_count) -> None:
    if (keep_fraction is None) == (target_count is None):
        raise InvalidParams("give exactly one of keep_fraction and target_count")


def sparsify_interface(
    interface_edges: list[tuple[int, int, float]],
    resistances: ResistanceEstimate,
    keep_fraction: float | None = None,
    seed: int = 0,
    target_count: int | None = None,
) -> SparsifiedInterface:
    """Sample q crossing edges with replacement, p_e ~ w_e R_e, and reweight.

    Give exactly one of keep_fraction and target_count: q is
    max(1, ceil(keep_fraction * |interface|)) or target_count. Duplicate draws merge by summing their w_e/(q p_e) weights.
    `resistances` must list the interface's (u, v) pairs in order.
    """
    m = len(interface_edges)
    if m == 0:
        raise EmptyInterface("no crossing edges to sparsify")
    _check_sampling_mode(keep_fraction, target_count)
    if target_count is not None:
        q = int(target_count)
        if q < 1:
            raise InvalidParams("target_count must be >= 1")
    else:
        if not 0.0 < keep_fraction <= 1.0:
            raise InvalidParams("keep_fraction must lie in (0, 1]")
        q = max(1, math.ceil(keep_fraction * m))
    w = np.array([e[2] for e in interface_edges])
    pairs = [(e[0], e[1]) for e in interface_edges]
    if resistances.edges != pairs or len(resistances.values) != m:
        raise InvalidParams("resistance estimate does not list the interface's edges in order")
    r = np.asarray(resistances.values, dtype=np.float64)
    if np.any(r <= 0.0):
        raise InvalidParams("resistances must be strictly positive")
    p = w * r
    p /= p.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(q, p)
    kept = [
        (u, v, float(c) * w_e / (q * p_e))
        for (u, v, w_e), c, p_e in zip(interface_edges, counts, p)
        if c > 0
    ]
    return SparsifiedInterface(
        kept_edges=kept,
        original_count=m,
        sample_count=q,
    )


def _as_dense(l) -> np.ndarray:
    if isinstance(l, Laplacian):
        return l.dense()
    if sp.issparse(l):
        return l.toarray()
    return np.asarray(l, dtype=np.float64)


def _components(lap: np.ndarray) -> int:
    """Connected components of a Laplacian's nonzero pattern."""
    return connected_components(sp.csr_matrix(lap), directed=False)[0]


def verify_spectral_bound(
    l_orig,
    l_sparse,
    eps: float,
    trials: int,
    seed: int = 0,
) -> SpectralBoundReport:
    """Report min/max of x^T L' x / x^T L x against the (1 +- eps) band.

    Random unit directions always; for n <= _BOUND_DENSE_N the generalized
    eigenvalue extremes on the range of L are included, which makes the
    reported ratios the true worst case. Probabilistic at aggressive
    sampling rates, so this reports rather than asserts. One exact case
    overrides the samples: when L' has more connected components than L,
    some vector constant on each component of L' but not on each component
    of L has ratio 0, so the report reads ratio_min 0.0 and fails.
    """
    a = _as_dense(l_orig)
    b = _as_dense(l_sparse)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        x = rng.standard_normal(n)
        x -= x.mean()
        qa = float(x @ (a @ x))
        if qa <= 1e-12 * n:
            continue
        ratios.append(float(x @ (b @ x)) / qa)
    lo = min(ratios) if ratios else 1.0
    hi = max(ratios) if ratios else 1.0
    dense = n <= _BOUND_DENSE_N
    if dense:
        w, u = np.linalg.eigh(a)
        pos = w > 1e-10 * max(1.0, float(w[-1]))
        basis = u[:, pos]
        proj_b = basis.T @ b @ basis
        proj_a = np.diag(w[pos])
        gen = scipy.linalg.eigh(proj_b, proj_a, eigvals_only=True)
        lo = min(lo, float(gen[0]))
        hi = max(hi, float(gen[-1]))
    passed = (lo >= 1.0 - eps) and (hi <= 1.0 + eps)
    if _components(b) > _components(a):
        lo, passed = 0.0, False
    return SpectralBoundReport(
        eps=eps,
        ratio_min=lo,
        ratio_max=hi,
        dense_extremes=dense,
        passed=passed,
    )


@dataclass(frozen=True)
class SparsifyPolicy:
    """How build_plan thins accepted interfaces."""

    keep_fraction: float | None = None
    target_count: int | None = None
    eps_jl: float = 0.5

    def __post_init__(self):
        _check_sampling_mode(self.keep_fraction, self.target_count)


def apply_policy(
    sub: Graph,
    crossing_local: list[tuple[int, int, float]],
    policy: SparsifyPolicy,
    seed: int,
) -> SparsifiedInterface:
    """Sparsify one interface of a connected subgraph under a policy."""
    try:
        resist = estimate_resistances(sub, crossing_local, eps_jl=policy.eps_jl, seed=seed)
    except SolverNotConverged as exc:
        warnings.warn(f"resistance solve did not converge ({exc}); using 1/w")
        resist = ResistanceEstimate(
            edges=[(u, v) for u, v, _ in crossing_local],
            values=np.array([1.0 / w for _, _, w in crossing_local]),
            projection_dim=0,
            epsilon_jl=policy.eps_jl,
        )
    return sparsify_interface(
        crossing_local,
        resist,
        keep_fraction=policy.keep_fraction,
        seed=seed + 1,
        target_count=policy.target_count,
    )
