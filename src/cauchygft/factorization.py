"""Factorize a graph Fourier transform into leaf bases and Cauchy factors.

Execution follows the divide-and-conquer recipe: dense eigendecompositions
on the leaf blocks, then bottom-up merges where each bridge edge becomes one
rank-one update solved through the secular equation. The stored history
applies U^T (forward) and U (inverse) as operators without ever forming U.

Eigenvalue slots of every active subtree are kept sorted ascending: each
merge starts with a concat-sort permutation and each factor carries its own
post-update sort (new roots can leapfrog deflated eigenvalues).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

import numpy as np

from .codec import F64, I64, fields_from_dict, fields_to_dict
from .errors import DimensionMismatch, PlanMismatch, TooLarge, ZeroDegreeNode
from .graph import COMBINATORIAL, NORMALIZED, Graph, build_laplacian, dense_eig
from .plan import MergePlan, read_json
from .secular import CauchyFactor, rank_one_update_factor

GFT_VERSION = 3
# largest n whose operator reconstruct_operator materializes densely
DENSE_LIMIT = 2048
# widest merge record (positions) that is served through one dense operator:
# below it rebuilding every Cauchy block per call costs more than the multiply
_DENSE_CACHE_MAX = 512


def _unpermute(view: np.ndarray, perm: np.ndarray) -> None:
    """Undo `view[:] = view[perm]` in place."""
    tmp = np.empty_like(view)
    tmp[perm] = view
    view[:] = tmp


@dataclass(eq=False)
class MergeStep:
    """One bridge edge's factor plus the slot sort that follows it."""

    factor: CauchyFactor
    perm: I64 | None  # local to the owning merge range; None = identity

    def apply_forward(self, view: np.ndarray) -> None:
        self.factor.apply_inplace(view)
        if self.perm is not None:
            view[:] = view[self.perm]

    def apply_inverse(self, view: np.ndarray) -> None:
        if self.perm is not None:
            _unpermute(view, self.perm)
        self.factor.apply_inplace(view, transpose=True)


@dataclass(eq=False)
class MergeRecord:
    """All factors of one tree node's interface, over positions [start, stop).

    Maps the concatenated children spectra to the node's own spectrum: the
    concat sort, then every step. A record of at most _DENSE_CACHE_MAX
    positions is served through one dense orthogonal r x r operator, built
    from its steps on first use under a lock and kept (never serialized);
    a wider one walks its steps, rebuilding each Cauchy block, per call.
    """

    node_id: int
    start: int
    stop: int
    concat_perm: I64 | None
    steps: list[MergeStep]
    _operator: np.ndarray | None = field(default=None, init=False, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False
    )

    def apply_forward(self, view: np.ndarray) -> None:
        """Children spectra to node spectrum, in place on an (r, c) view."""
        op = self._dense_operator()
        if op is None:
            self._walk_forward(view)
        else:
            view[:] = op @ view

    def apply_inverse(self, view: np.ndarray) -> None:
        """Node spectrum back to children spectra, in place on an (r, c) view."""
        op = self._dense_operator()
        if op is None:
            self._walk_inverse(view)
        else:
            view[:] = op.T @ view

    def _dense_operator(self) -> np.ndarray | None:
        if self.stop - self.start > _DENSE_CACHE_MAX:
            return None
        if self._operator is None:
            with self._lock:
                if self._operator is None:
                    self._operator = self._build_operator()
        return self._operator

    def _build_operator(self) -> np.ndarray:
        op = np.eye(self.stop - self.start)
        self._walk_forward(op)
        return op

    def _walk_forward(self, view: np.ndarray) -> None:
        if self.concat_perm is not None:
            view[:] = view[self.concat_perm]
        for step in self.steps:
            step.apply_forward(view)

    def _walk_inverse(self, view: np.ndarray) -> None:
        for step in reversed(self.steps):
            step.apply_inverse(view)
        if self.concat_perm is not None:
            _unpermute(view, self.concat_perm)


@dataclass(eq=False)
class FactorizedGft:
    """Leaf eigenbases + ordered Cauchy history + every tree node's eigenvalues.

    The factor data never changes after construction. Each merge record of
    at most _DENSE_CACHE_MAX positions caches one dense operator, built on
    the first transform that reaches it (so that call costs more than later
    ones) under a per-record lock that lets concurrent callers build it
    once. forward/inverse are reentrant and act column-wise on signal
    matrices.
    """

    plan: MergePlan
    kind: str
    leaf_bases: list[F64]
    history: list[MergeRecord]
    level_lambdas: dict[int, F64]
    plan_hash: str = ""

    @property
    def n(self) -> int:
        return self.plan.n

    @property
    def lambda_final(self) -> np.ndarray:
        """The graph's eigenvalues, ascending: the root node's spectrum."""
        return self.level_lambdas[self.plan.root_id]

    def _check_rows(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        arr = np.asarray(x, dtype=np.float64)
        vec = arr.ndim == 1
        if arr.shape[0] != self.n:
            raise DimensionMismatch(f"expected {self.n} rows, got {arr.shape[0]}")
        return arr.reshape(self.n, -1), vec

    def forward(self, x: np.ndarray) -> np.ndarray:
        """U^T x: permute, per-leaf transforms, then the factor history."""
        arr, vec = self._check_rows(x)
        y = self._walk_forward(arr, {})
        return y[:, 0] if vec else y

    def _walk_forward(self, arr: np.ndarray, scales: dict[int, np.ndarray]) -> np.ndarray:
        """U^T arr for (n, c) rows; tree node nid's spectrum is multiplied by
        scales[nid] (one entry per position) right after its transform."""
        y = arr[self.plan.pos_to_node]
        for i, basis in enumerate(self.leaf_bases):
            nid = self.plan.leaf_node_id[i]
            s0, s1 = self.plan.ranges[nid]
            y[s0:s1] = basis.T @ y[s0:s1]
            if nid in scales:
                y[s0:s1] *= scales[nid][:, None]
        for rec in self.history:
            view = y[rec.start : rec.stop]
            rec.apply_forward(view)
            if rec.node_id in scales:
                view *= scales[rec.node_id][:, None]
        return y

    def inverse(self, x: np.ndarray) -> np.ndarray:
        """U x: history transposed in reverse, leaf bases, inverse permutation."""
        arr, vec = self._check_rows(x)
        y = arr.copy()
        for rec in reversed(self.history):
            rec.apply_inverse(y[rec.start : rec.stop])
        for i, basis in enumerate(self.leaf_bases):
            nid = self.plan.leaf_node_id[i]
            s0, s1 = self.plan.ranges[nid]
            y[s0:s1] = basis @ y[s0:s1]
        out = y[self.plan.node_to_pos]
        return out[:, 0] if vec else out

    def reconstruct_operator(self, spectral_multiplier: np.ndarray) -> np.ndarray:
        """Materialize U diag(g) U^T densely; verification-scale n only."""
        if self.n > DENSE_LIMIT:
            raise TooLarge(f"n={self.n} exceeds dense limit {DENSE_LIMIT}")
        g = np.asarray(spectral_multiplier, dtype=np.float64)
        if g.shape != (self.n,):
            raise DimensionMismatch("multiplier must have one entry per eigenvalue")
        spec = self.forward(np.eye(self.n))
        return self.inverse(g[:, None] * spec)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready form: GFT_VERSION plus every init field, nested as stored."""
        return {"version": GFT_VERSION, **fields_to_dict(self)}

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def from_dict(cls, data: dict) -> FactorizedGft:
        """Rebuild a saved transform; PlanMismatch if the data is not one.

        The version must be GFT_VERSION, the kind a Laplacian kind, the
        stored plan hash must match the stored plan and every array must
        have the shape and index range that plan implies, with each tree
        node's eigenvalues ascending, each step's affected set strictly
        increasing and its column norms positive; a missing or mistyped
        field, or a float array holding NaN or inf, is reported the same way.
        """
        try:
            version = data["version"]
            if version != GFT_VERSION:
                raise PlanMismatch(
                    f"transform file version {version!r}, expected {GFT_VERSION}"
                )
            fact = fields_from_dict(cls, data)
            if fact.kind not in (COMBINATORIAL, NORMALIZED):
                raise PlanMismatch(f"transform file kind {fact.kind!r} is not a Laplacian kind")
            if fact.plan_hash != fact.plan.content_hash():
                raise PlanMismatch("transform file plan_hash does not match its plan")
            fact._check_shapes()
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            raise PlanMismatch(
                f"malformed transform file ({type(exc).__name__}: {exc})"
            ) from exc
        return fact

    def _check_shapes(self) -> None:
        """PlanMismatch unless every array fits the plan: shapes, index
        ranges, ascending spectra, strictly increasing affected sets,
        positive column norms."""

        def expect(what: str, got, want) -> None:
            if got != want:
                raise PlanMismatch(f"{what} has shape {got}, expected {want}")

        def expect_perm(what: str, perm: np.ndarray | None, r: int) -> None:
            if perm is not None and not np.array_equal(np.sort(perm), np.arange(r)):
                raise PlanMismatch(f"{what} is not a permutation of {r} positions")

        def expect_indices(what: str, idx: np.ndarray, r: int) -> None:
            if idx.size and (idx.min() < 0 or idx.max() >= r):
                raise PlanMismatch(f"{what} has an index outside {r} positions")

        plan = self.plan
        expect("leaf_bases", (len(self.leaf_bases),), (len(plan.leaves),))
        for i, basis in enumerate(self.leaf_bases):
            size = len(plan.leaves[i])
            expect(f"leaf basis {i}", basis.shape, (size, size))
        if set(self.level_lambdas) != set(plan.ranges):
            raise PlanMismatch("level_lambdas does not cover the plan's tree nodes")
        for nid, lam in self.level_lambdas.items():
            s0, s1 = plan.ranges[nid]
            expect(f"level_lambdas {nid}", lam.shape, (s1 - s0,))
            if np.any(np.diff(lam) < 0.0):
                raise PlanMismatch(f"level_lambdas {nid} is not ascending")
        for rec in self.history:
            where = f"merge record {rec.node_id}"
            expect(f"{where} range", (rec.start, rec.stop), plan.ranges.get(rec.node_id))
            r = rec.stop - rec.start
            expect_perm(f"{where} concat_perm", rec.concat_perm, r)
            for j, step in enumerate(rec.steps):
                f = step.factor
                at = f"{where} step {j}"
                expect_perm(f"{at} perm", step.perm, r)
                expect_indices(f"{at} affected", f.affected, r)
                if np.any(np.diff(f.affected) <= 0):
                    raise PlanMismatch(f"{at} affected is not strictly increasing")
                expect_indices(f"{at} origins", f.solution.origins, f.affected.size)
                for blk in f.householder_blocks:
                    if not 0 <= blk.start < blk.stop <= r:
                        raise PlanMismatch(f"{at} reflector outside {r} positions")
                    expect(f"{at} reflector", blk.reflector.shape, (blk.stop - blk.start,))
                a = (f.affected.size,)
                expect(f"{at} zhat", f.zhat.shape, a)
                expect(f"{at} column_norms", f.column_norms.shape, a)
                if not np.all(f.column_norms > 0.0):
                    raise PlanMismatch(f"{at} column_norms are not all positive")
                expect(f"{at} origins", f.solution.origins.shape, a)
                expect(f"{at} offsets", f.solution.offsets.shape, a)
                expect(f"{at} lambda_old", f.solution.lambda_old.shape, a)

    @classmethod
    def load(cls, path: str) -> FactorizedGft:
        return cls.from_dict(read_json(path, "transform"))


def _leaf_block(g: Graph, leaf: np.ndarray, kind: str, inv_sqrt_deg) -> np.ndarray:
    """Dense Laplacian of the bridge-stripped graph restricted to one leaf."""
    sub, _ = g.induced_subgraph(leaf)
    block = build_laplacian(sub, COMBINATORIAL).dense()
    if kind == NORMALIZED:
        s = inv_sqrt_deg[leaf]
        block = block * np.outer(s, s)
    return block


def factorize(g: Graph, plan: MergePlan, kind: str = COMBINATORIAL) -> FactorizedGft:
    """Run the hierarchical merge and return the factorized transform.

    Leaves are solved in order, then the merges bottom-up, each interface's
    bridges one after another.
    """
    plan.validate(g)
    n = g.n
    inv_sqrt_deg = None
    if kind == NORMALIZED:
        deg = g.degrees()
        zero = np.flatnonzero(deg == 0.0)
        if zero.size:
            raise ZeroDegreeNode(int(zero[0]))
        inv_sqrt_deg = 1.0 / np.sqrt(deg)
    elif kind != COMBINATORIAL:
        raise PlanMismatch(f"unknown Laplacian kind {kind!r}")

    leaf_bases: list[np.ndarray] = []
    level_lambdas: dict[int, np.ndarray] = {}
    for i, leaf in enumerate(plan.leaves):
        lam, basis = dense_eig(_leaf_block(g, leaf, kind, inv_sqrt_deg))
        leaf_bases.append(basis)
        level_lambdas[plan.leaf_node_id[i]] = lam

    # one full-length row per bridge (bridge_arrays order), in the current
    # eigenbases: at first its two endpoint entries rotated by their leaves
    u, v, w, filed = plan.bridge_arrays()
    scale_u, scale_v = np.sqrt(w), -np.sqrt(w)
    if kind == NORMALIZED:
        scale_u, scale_v = scale_u * inv_sqrt_deg[u], scale_v * inv_sqrt_deg[v]
    zvecs = np.zeros((u.size, n))
    for ends, scale in ((u, scale_u), (v, scale_v)):
        for i, basis in enumerate(leaf_bases):
            rows = np.flatnonzero(plan.leaf_of[ends] == i)
            s0, s1 = plan.ranges[plan.leaf_node_id[i]]
            zvecs[rows, s0:s1] = basis[plan.node_to_pos[ends[rows]] - s0] * scale[rows, None]
    carried = plan.carried()

    history: list[MergeRecord] = []
    for nd in plan.internal_nodes():
        nid = nd.id
        s0, s1 = plan.ranges[nid]
        # one (r, pending) block per merge: each step acts on it, each solved
        # bridge leaves it, the rest go back to zvecs when the merge is done
        keys = carried[nid]
        block = zvecs[keys, s0:s1].T.copy()
        lam = np.concatenate([level_lambdas[c] for c in nd.children])
        concat_perm: np.ndarray | None = None
        if np.any(np.diff(lam) < 0.0):
            concat_perm = np.argsort(lam, kind="stable")
            lam = lam[concat_perm]
            block = block[concat_perm]
        owned = sorted((k for k in keys if filed[k] == nid), key=lambda k: sorted((u[k], v[k])))
        steps: list[MergeStep] = []
        for k in owned:
            j = keys.index(k)
            factor, lam_unsorted = rank_one_update_factor(lam, block[:, j].copy(), rho=1.0)
            perm: np.ndarray | None = None
            if np.any(np.diff(lam_unsorted) < 0.0):
                perm = np.argsort(lam_unsorted, kind="stable")
                lam = lam_unsorted[perm]
            else:
                lam = lam_unsorted
            step = MergeStep(factor=factor, perm=perm)
            del keys[j]
            block = np.delete(block, j, axis=1)
            if keys:
                # one batched apply beats per-edge matvecs for wide interfaces
                step.apply_forward(block)
            steps.append(step)
        zvecs[keys, s0:s1] = block.T
        level_lambdas[nid] = lam
        history.append(
            MergeRecord(
                node_id=nid, start=s0, stop=s1, concat_perm=concat_perm, steps=steps
            )
        )

    return FactorizedGft(
        plan=plan,
        kind=kind,
        leaf_bases=leaf_bases,
        history=history,
        level_lambdas=level_lambdas,
        plan_hash=plan.content_hash(),
    )
