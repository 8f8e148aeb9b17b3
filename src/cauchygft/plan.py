"""Hierarchical merge plans: leaf blocks, binary merge tree, bridge interfaces.

A plan orders the graph's nodes into contiguous leaf blocks and fixes a
binary tree over the leaves. The tree is a list in children-first order:
entry i has id i, an internal node's children come before it and the last
entry is the root. Each tree node's position range is derived from that
list once. Every edge is either internal to one leaf or assigned to exactly
one interface: its owner, the lowest tree node whose range holds both
endpoints. Merges below the owner only rotate the bridge. Interface size k
(max bridges per merge) is what the factorization cost scales with.

A plan is saved as its fields through the codec behind a "version" key;
`content_hash` is taken over that text.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .codec import F64, I64, fields_from_dict, fields_to_dict
from .errors import PlanMismatch
from .graph import Graph

PLAN_VERSION = 1


@dataclass(frozen=True)
class PlanNode:
    id: int
    children: tuple[int, int] | None  # child node ids, or None for a leaf
    leaf: int | None  # index into MergePlan.leaves, or None for a merge


@dataclass(eq=False)
class MergePlan:
    """Leaf node sets, merge tree, and per-merge bridge-edge interfaces.

    Interfaces map a tree node id to its bridges (u, v, w); they are written
    in dict order, which build_plan and plan_from_leaves fill by node id.
    A tree that is not one binary tree over all n positions raises
    PlanMismatch on construction.
    """

    n: int
    leaves: list[I64]
    tree: list[PlanNode]
    interfaces: dict[int, list[tuple[int, int, float]]]
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        self.node_to_pos = -np.ones(self.n, dtype=np.int64)
        self.pos_to_node = np.concatenate(
            [np.asarray(lv, dtype=np.int64) for lv in self.leaves]
        )
        self.node_to_pos[self.pos_to_node] = np.arange(self.n)
        self.leaf_of = -np.ones(self.n, dtype=np.int64)
        for i, lv in enumerate(self.leaves):
            self.leaf_of[np.asarray(lv)] = i
        # contiguous position range and depth per tree node, bottom-up
        offsets = np.concatenate(
            [[0], np.cumsum([len(lv) for lv in self.leaves])]
        )
        self.ranges: dict[int, tuple[int, int]] = {}
        self.leaf_node_id: dict[int, int] = {}
        parent: dict[int, int | None] = {}
        depth: dict[int, int] = {}
        for nid, nd in enumerate(self.tree):
            if nd.id != nid:
                raise PlanMismatch(f"tree entry {nid} has id {nd.id}")
            parent[nid] = None
            if nd.children is None:
                if nd.leaf in self.leaf_node_id or not 0 <= nd.leaf < len(self.leaves):
                    raise PlanMismatch(f"tree node {nid} names leaf {nd.leaf}, unknown or taken")
                self.ranges[nid] = (int(offsets[nd.leaf]), int(offsets[nd.leaf + 1]))
                self.leaf_node_id[nd.leaf] = nid
                depth[nid] = 0
                continue
            for c in nd.children:
                # missing (not an earlier node) or already claimed
                if parent.get(c, nid) is not None:
                    raise PlanMismatch(f"tree node {nid} cannot take node {c} as a child")
                parent[c] = nid
            a, b = nd.children
            if self.ranges[a][1] != self.ranges[b][0]:
                raise PlanMismatch("child blocks are not adjacent")
            self.ranges[nid] = (self.ranges[a][0], self.ranges[b][1])
            depth[nid] = 1 + max(depth[a], depth[b])
        self.root_id = len(self.tree) - 1
        roots = [nid for nid, up in parent.items() if up is None]
        if (
            roots != [self.root_id]
            or len(self.leaf_node_id) != len(self.leaves)
            or self.ranges[self.root_id] != (0, self.n)
        ):
            raise PlanMismatch(f"tree is not one binary tree over all {self.n} positions")
        self.num_levels = depth[self.root_id]

    @property
    def max_interface_size(self) -> int:
        sizes = [len(v) for v in self.interfaces.values()]
        return max(sizes) if sizes else 0

    @property
    def total_bridges(self) -> int:
        return sum(len(v) for v in self.interfaces.values())

    def internal_nodes(self) -> list[PlanNode]:
        """Internal nodes children-first (the merge execution order)."""
        return [nd for nd in self.tree if nd.children is not None]

    def bridge_arrays(self) -> tuple[I64, I64, F64, I64]:
        """Every interface edge in interface order: u, v, w and the node it is filed under."""
        rows = [(u, v, nid) for nid, es in self.interfaces.items() for u, v, _ in es]
        u, v, filed = np.array(rows, dtype=np.int64).reshape(-1, 3).T
        w = np.array([w for es in self.interfaces.values() for _, _, w in es], dtype=np.float64)
        return u, v, w, filed

    def _holds(self, nodes: np.ndarray) -> np.ndarray:
        """(len(nodes), tree size) mask: tree node j's range holds nodes[i]'s position."""
        bounds = np.array(list(self.ranges.values()), dtype=np.int64).reshape(-1, 2)
        pos = self.node_to_pos[nodes][:, None]
        return (bounds[:, 0] <= pos) & (pos < bounds[:, 1])

    def owners(self, u: np.ndarray, v: np.ndarray) -> I64:
        """Per pair, the lowest tree node whose range holds both positions:
        ids run children first, so the first such id."""
        return (self._holds(u) & self._holds(v)).argmax(axis=1)

    def owner(self, u: int, v: int) -> int:
        """owners() for one pair."""
        return int(self.owners(np.array([u]), np.array([v]))[0])

    def carried(self) -> dict[int, list[int]]:
        """Per merge id, the bridges it transforms, as indices into bridge_arrays().

        A merge carries a bridge when it owns it (and solves it) or holds
        exactly one endpoint's position (and only rotates it).
        """
        u, v, _, _ = self.bridge_arrays()
        hold_u, hold_v = self._holds(u), self._holds(v)
        carries = hold_u ^ hold_v
        carries[np.arange(u.size), self.owners(u, v)] = True
        return {nd.id: np.flatnonzero(carries[:, nd.id]).tolist() for nd in self.internal_nodes()}

    def validate(self, g: Graph) -> None:
        """Check the plan covers g exactly; raise PlanMismatch otherwise."""
        if g.n != self.n:
            raise PlanMismatch(f"plan is for n={self.n}, graph has n={g.n}")
        cover = np.sort(self.pos_to_node)
        if not np.array_equal(cover, np.arange(self.n)):
            raise PlanMismatch("leaves do not partition the node set")
        u, v, w, filed = self.bridge_arrays()
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = list(zip(lo.tolist(), hi.tolist()))
        if (b := _first((lo < 0) | (hi >= self.n))) is not None:
            raise PlanMismatch(f"edge ({u[b]},{v[b]}) has an endpoint outside the graph")
        if (b := _first(self.owners(u, v) != filed)) is not None:
            raise PlanMismatch(
                f"edge ({u[b]},{v[b]}) does not cross the children of node {filed[b]}"
            )
        code, g_code = lo * self.n + hi, g.uu * self.n + g.vv
        order = np.argsort(code, kind="stable")
        if (i := _first(code[order][1:] == code[order][:-1])) is not None:
            b = order[i + 1]
            raise PlanMismatch(f"edge {keys[b]} listed twice in the interface of node {filed[b]}")
        hit = np.isin(code, g_code)
        # graph edges are canonical and sorted, so g_code ascends
        found, at = np.flatnonzero(hit), np.searchsorted(g_code, code[hit])
        cross = self.leaf_of[g.uu] != self.leaf_of[g.vv]
        if (i := _first(~cross[at])) is not None:
            raise PlanMismatch(f"intra-leaf edge {keys[found[i]]} also in an interface")
        if (e := _first(cross & ~np.isin(g_code, code))) is not None:
            raise PlanMismatch(f"cross-leaf edge {(int(g.uu[e]), int(g.vv[e]))} not covered")
        if (i := _first(w[hit] != g.ww[at])) is not None:
            raise PlanMismatch(f"edge {keys[found[i]]} weight differs from the graph")
        leftovers = [keys[b] for b in np.flatnonzero(~hit)[:3]]
        if leftovers:
            raise PlanMismatch(f"interface edges not present in graph: {leftovers}")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {"version": PLAN_VERSION, **fields_to_dict(self)}

    @classmethod
    def from_dict(cls, data: dict) -> MergePlan:
        """Rebuild a saved plan; PlanMismatch if the data is not one.

        The version must be PLAN_VERSION; a missing or mistyped field, or
        leaves that do not index n nodes, are reported the same way. A
        missing "config" reads as {}.
        """
        try:
            version = data["version"]
            if version != PLAN_VERSION:
                raise PlanMismatch(f"plan version {version!r}, expected {PLAN_VERSION}")
            return fields_from_dict(cls, {"config": {}, **data})
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            raise PlanMismatch(f"malformed plan ({type(exc).__name__}: {exc})") from exc

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path: str) -> MergePlan:
        return cls.from_dict(read_json(path, "plan"))

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _first(mask: np.ndarray) -> int | None:
    """Index of the first True entry, or None."""
    idx = np.flatnonzero(mask)
    return int(idx[0]) if idx.size else None


def read_json(path: str, what: str):
    """Parse a saved JSON file; PlanMismatch if it is cut short or not JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise PlanMismatch(f"{what} file {path} is not valid JSON ({exc})") from exc


def plan_from_leaves(
    g: Graph,
    leaf_sets: list,
    config: dict | None = None,
) -> MergePlan:
    """Plan with the given leaves and a balanced left-to-right merge tree.

    Cross-leaf edges are assigned to the tree node where their leaf subtrees
    first join. Handy for hand-built plans in tests and for forced splits.
    """
    leaves = [np.asarray(sorted(lv), dtype=np.int64) for lv in leaf_sets]
    tree = [PlanNode(id=i, children=None, leaf=i) for i in range(len(leaves))]
    frontier = list(range(len(leaves)))
    while len(frontier) > 1:
        nxt = []
        for j in range(0, len(frontier) - 1, 2):
            nxt.append(len(tree))
            tree.append(
                PlanNode(id=len(tree), children=(frontier[j], frontier[j + 1]), leaf=None)
            )
        if len(frontier) % 2:
            nxt.append(frontier[-1])
        frontier = nxt
    plan = MergePlan(n=g.n, leaves=leaves, tree=tree, interfaces={}, config=config or {})
    # graph edges come sorted by (u, v), so a stable sort by owner keeps
    # each interface in that order
    cross = np.flatnonzero(plan.leaf_of[g.uu] != plan.leaf_of[g.vv])
    owner = plan.owners(g.uu[cross], g.vv[cross])
    order = np.argsort(owner, kind="stable")
    for nid, e in zip(owner[order].tolist(), cross[order]):
        plan.interfaces.setdefault(nid, []).append(
            (int(g.uu[e]), int(g.vv[e]), float(g.ww[e]))
        )
    plan.validate(g)
    return plan
