"""Graph container, Laplacians, rank-one edge decomposition, generators and file IO.

Conventions: nodes are 0-based, edges are undirected and stored once with
u < v, weights are strictly positive, self-loops live in a separate diagonal
map (they add to the Laplacian diagonal only).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import (
    ConvergenceFailure,
    InvalidParams,
    ParseError,
    ZeroDegreeNode,
)

COMBINATORIAL = "combinatorial"
NORMALIZED = "normalized"


@dataclass(frozen=True, eq=False)
class Graph:
    """Sparse undirected weighted graph with optional self-loops.

    Edge arrays are canonical: u < v, sorted lexicographically, no duplicates.
    Instances are immutable and safe to share across threads.
    """

    n: int
    uu: np.ndarray
    vv: np.ndarray
    ww: np.ndarray
    self_loops: dict[int, float] = field(default_factory=dict)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: list[tuple[int, int, float]] | np.ndarray,
        self_loops: dict[int, float] | None = None,
    ) -> Graph:
        if n < 0:
            raise InvalidParams("node count must be nonnegative")
        if len(edges) == 0:
            uu = np.zeros(0, dtype=np.int64)
            vv = np.zeros(0, dtype=np.int64)
            ww = np.zeros(0, dtype=np.float64)
        else:
            arr = np.asarray([(e[0], e[1]) for e in edges], dtype=np.int64)
            ww = np.asarray([e[2] for e in edges], dtype=np.float64)
            uu = arr[:, 0]
            vv = arr[:, 1]
            uu, vv = np.minimum(uu, vv), np.maximum(uu, vv)
            order = np.lexsort((vv, uu))
            uu, vv, ww = uu[order], vv[order], ww[order]
            if uu.min() < 0 or vv.max() >= n:
                raise InvalidParams("edge endpoint out of range")
            if np.any(uu == vv):
                raise InvalidParams("self-loops must go in the self_loops map")
            if np.any(ww <= 0.0):
                raise InvalidParams("edge weights must be strictly positive")
            dup = (uu[1:] == uu[:-1]) & (vv[1:] == vv[:-1])
            if np.any(dup):
                i = int(np.argmax(dup))
                raise InvalidParams(f"duplicate edge ({uu[i]}, {vv[i]})")
        loops = dict(self_loops) if self_loops else {}
        for i, v in loops.items():
            if not 0 <= i < n:
                raise InvalidParams(f"self-loop node {i} out of range")
            if v < 0.0:
                raise InvalidParams("self-loop weights must be nonnegative")
        return cls(n=n, uu=uu, vv=vv, ww=ww, self_loops=loops)

    @property
    def num_edges(self) -> int:
        return int(self.uu.size)

    def edge_list(self) -> list[tuple[int, int, float]]:
        return [
            (int(u), int(v), float(w)) for u, v, w in zip(self.uu, self.vv, self.ww)
        ]

    def degrees(self) -> np.ndarray:
        """Weighted degree per node (self-loops excluded)."""
        d = np.zeros(self.n, dtype=np.float64)
        np.add.at(d, self.uu, self.ww)
        np.add.at(d, self.vv, self.ww)
        return d

    def adjacency(self) -> sp.csr_matrix:
        w = np.concatenate([self.ww, self.ww])
        r = np.concatenate([self.uu, self.vv])
        c = np.concatenate([self.vv, self.uu])
        return sp.csr_matrix((w, (r, c)), shape=(self.n, self.n))

    def induced_subgraph(self, nodes: np.ndarray) -> tuple[Graph, np.ndarray]:
        """Subgraph on `nodes`, relabelled 0..len-1. Returns (subgraph, nodes)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        local = -np.ones(self.n, dtype=np.int64)
        local[nodes] = np.arange(nodes.size)
        keep = (local[self.uu] >= 0) & (local[self.vv] >= 0)
        edges = list(
            zip(
                local[self.uu[keep]].tolist(),
                local[self.vv[keep]].tolist(),
                self.ww[keep].tolist(),
            )
        )
        loops = {
            int(local[i]): v for i, v in self.self_loops.items() if local[i] >= 0
        }
        return Graph.from_edges(nodes.size, edges, loops), nodes

    def connected_components(self) -> list[np.ndarray]:
        """Components as sorted node arrays, ordered by smallest member.

        csgraph numbers components as its scan over nodes 0..n-1 first meets
        them, so label order is smallest-member order.
        """
        count, labels = csgraph.connected_components(self.adjacency(), directed=False)
        order = np.argsort(labels, kind="stable")
        ends = np.cumsum(np.bincount(labels, minlength=count))
        return np.split(order, ends[:-1]) if count else []

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.connected_components()) == 1


@dataclass(frozen=True, eq=False)
class Laplacian:
    """Symmetric PSD graph Laplacian, combinatorial or degree-normalized."""

    matrix: sp.csr_matrix

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


def build_laplacian(g: Graph, kind: str = COMBINATORIAL) -> Laplacian:
    """Assemble D - W + V, optionally normalized as D^{-1/2} L D^{-1/2}.

    The degree matrix D counts edge weights only; self-loops enter through
    the diagonal V. Symmetry is exact by construction.
    """
    if kind not in (COMBINATORIAL, NORMALIZED):
        raise InvalidParams(f"unknown Laplacian kind {kind!r}")
    deg = g.degrees()
    diag = deg.copy()
    for i, v in g.self_loops.items():
        diag[i] += v
    w = np.concatenate([-g.ww, -g.ww, diag])
    r = np.concatenate([g.uu, g.vv, np.arange(g.n)])
    c = np.concatenate([g.vv, g.uu, np.arange(g.n)])
    lap = sp.csr_matrix((w, (r, c)), shape=(g.n, g.n))
    if kind == NORMALIZED:
        zero = np.flatnonzero(deg == 0.0)
        if zero.size:
            raise ZeroDegreeNode(int(zero[0]))
        s = 1.0 / np.sqrt(deg)
        lap = sp.csr_matrix(sp.diags(s) @ lap @ sp.diags(s))
    lap.sum_duplicates()
    return Laplacian(matrix=lap)


def barabasi_albert(n: int, m: int, seed: int) -> Graph:
    """Preferential-attachment graph: n nodes, exactly m*(n-m) unit-weight edges.

    Starts from m edgeless seed nodes; the first added node attaches to all of
    them, subsequent nodes attach to m distinct existing nodes sampled without
    replacement with probability proportional to current degree. Connected and
    deterministic for a fixed seed.
    """
    if m < 1 or m >= n:
        raise InvalidParams(f"need 1 <= m < n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    deg = np.zeros(n, dtype=np.float64)
    edges: list[tuple[int, int, float]] = []
    for new in range(m, n):
        if new == m:
            targets = np.arange(m)
        else:
            p = deg[:new] / deg[:new].sum()
            targets = rng.choice(new, size=m, replace=False, p=p)
        for t in targets:
            edges.append((int(t), new, 1.0))
            deg[t] += 1.0
            deg[new] += 1.0
    return Graph.from_edges(n, edges)


def dense_eig(l: Laplacian | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense symmetric eigendecomposition; the verification oracle and leaf solver.

    Returns eigenvalues ascending and an orthonormal eigenvector matrix, so
    U diag(w) U^T reconstructs the input. Caller is responsible for keeping n
    small enough to materialize densely.
    """
    a = l.dense() if isinstance(l, Laplacian) else np.asarray(l, dtype=np.float64)
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return w, u


def write_graph(g: Graph, path: str) -> None:
    """Plain-text edge list: first line n, then "u v w", then "# selfloop i v"."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{g.n}\n")
        for u, v, w in zip(g.uu, g.vv, g.ww):
            fh.write(f"{u} {v} {float(w)!r}\n")
        for i in sorted(g.self_loops):
            fh.write(f"# selfloop {i} {float(g.self_loops[i])!r}\n")


def read_graph(path: str) -> Graph:
    """Parse the edge-list format written by write_graph.

    Lines starting with "# selfloop" carry diagonal entries; any other "#"
    line is a comment. Raises ParseError with the offending line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    n = None
    edges: list[tuple[int, int, float]] = []
    loops: dict[int, float] = {}
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts and parts[0] == "selfloop":
                if len(parts) != 3:
                    raise ParseError(ln, "selfloop line needs: # selfloop i v")
                try:
                    loops[int(parts[1])] = float(parts[2])
                except ValueError as exc:
                    raise ParseError(ln, f"bad selfloop token: {exc}") from exc
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise ParseError(ln, "first line must be the node count")
            try:
                n = int(parts[0])
            except ValueError as exc:
                raise ParseError(ln, f"bad node count: {exc}") from exc
            continue
        if len(parts) != 3:
            raise ParseError(ln, "edge line needs: u v w")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(ln, f"bad edge token: {exc}") from exc
        edges.append((u, v, w))
    if n is None:
        raise ParseError(1, "empty graph file")
    try:
        return Graph.from_edges(n, edges, loops)
    except InvalidParams as exc:
        raise ParseError(len(lines), str(exc)) from exc
