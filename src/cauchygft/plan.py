"""Hierarchical merge plans: leaf blocks, binary merge tree, bridge interfaces.

A plan orders the graph's nodes into contiguous leaf blocks and fixes a
binary tree over the leaves. Every edge is either internal to one leaf or
assigned to exactly one interface: the tree node where its endpoints' leaf
subtrees first join. Interface size k (max bridges per merge) is what the
factorization cost scales with.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import PlanMismatch
from .graph import Graph

PLAN_VERSION = 1


@dataclass(frozen=True)
class PlanNode:
    id: int
    children: tuple[int, int] | None  # child node ids, or None for a leaf
    leaf_index: int | None


@dataclass(eq=False)
class MergePlan:
    """Leaf node sets, merge tree, and per-merge bridge-edge interfaces."""

    n: int
    leaves: list[np.ndarray]
    nodes: list[PlanNode]
    interfaces: dict[int, list[tuple[int, int, float]]]
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        self._derive()

    def _derive(self) -> None:
        self.node_to_pos = -np.ones(self.n, dtype=np.int64)
        self.pos_to_node = np.concatenate(
            [np.asarray(lv, dtype=np.int64) for lv in self.leaves]
        )
        self.node_to_pos[self.pos_to_node] = np.arange(self.n)
        self.leaf_of = -np.ones(self.n, dtype=np.int64)
        for i, lv in enumerate(self.leaves):
            self.leaf_of[np.asarray(lv)] = i
        # contiguous position range per tree node, bottom-up
        offsets = np.concatenate(
            [[0], np.cumsum([len(lv) for lv in self.leaves])]
        )
        self.ranges: dict[int, tuple[int, int]] = {}
        self.leaf_sets: dict[int, set[int]] = {}
        self.parent = {nd.id: None for nd in self.nodes}
        for nd in self.nodes:
            if nd.children is None:
                li = nd.leaf_index
                self.ranges[nd.id] = (int(offsets[li]), int(offsets[li + 1]))
                self.leaf_sets[nd.id] = {li}
            else:
                a, b = nd.children
                self.parent[a] = nd.id
                self.parent[b] = nd.id
                self.ranges[nd.id] = (self.ranges[a][0], self.ranges[b][1])
                self.leaf_sets[nd.id] = self.leaf_sets[a] | self.leaf_sets[b]
        self.root_id = self.nodes[-1].id
        self.leaf_node_id = {
            nd.leaf_index: nd.id for nd in self.nodes if nd.children is None
        }
        self.level: dict[int, int] = {}
        for nd in self.nodes:
            if nd.children is None:
                self.level[nd.id] = 0
            else:
                self.level[nd.id] = 1 + max(
                    self.level[nd.children[0]], self.level[nd.children[1]]
                )

    @property
    def num_levels(self) -> int:
        return self.level[self.root_id]

    @property
    def max_interface_size(self) -> int:
        sizes = [len(v) for v in self.interfaces.values()]
        return max(sizes) if sizes else 0

    @property
    def total_bridges(self) -> int:
        return sum(len(v) for v in self.interfaces.values())

    def internal_nodes(self) -> list[PlanNode]:
        """Internal nodes children-first (the merge execution order)."""
        return [nd for nd in self.nodes if nd.children is not None]

    def lca_of_leaves(self, la: int, lb: int) -> int:
        ia = self.leaf_node_id[la]
        ib = self.leaf_node_id[lb]
        seen = set()
        while ia is not None:
            seen.add(ia)
            ia = self.parent[ia]
        while ib not in seen:
            ib = self.parent[ib]
        return ib

    def validate(self, g: Graph) -> None:
        """Check the plan covers g exactly; raise PlanMismatch otherwise."""
        if g.n != self.n:
            raise PlanMismatch(f"plan is for n={self.n}, graph has n={g.n}")
        cover = np.sort(self.pos_to_node)
        if not np.array_equal(cover, np.arange(self.n)):
            raise PlanMismatch("leaves do not partition the node set")
        for nd in self.nodes:
            if nd.children is not None:
                a, b = nd.children
                if self.ranges[a][1] != self.ranges[b][0]:
                    raise PlanMismatch("child blocks are not adjacent")
        assigned: dict[tuple[int, int], float] = {}
        for nid, edges in self.interfaces.items():
            nd = self.nodes[nid]
            if nd.children is None:
                raise PlanMismatch(f"leaf node {nid} cannot own an interface")
            la_set = self.leaf_sets[nd.children[0]]
            lb_set = self.leaf_sets[nd.children[1]]
            for u, v, w in edges:
                lu, lv = int(self.leaf_of[u]), int(self.leaf_of[v])
                crosses = (lu in la_set and lv in lb_set) or (
                    lu in lb_set and lv in la_set
                )
                if not crosses:
                    raise PlanMismatch(
                        f"edge ({u},{v}) does not cross the children of node {nid}"
                    )
                key = (min(u, v), max(u, v))
                if key in assigned:
                    raise PlanMismatch(f"edge {key} assigned to two interfaces")
                assigned[key] = w
        for u, v, w in zip(g.uu, g.vv, g.ww):
            lu, lv = int(self.leaf_of[u]), int(self.leaf_of[v])
            key = (int(u), int(v))
            if lu == lv:
                if key in assigned:
                    raise PlanMismatch(f"intra-leaf edge {key} also in an interface")
            else:
                if key not in assigned:
                    raise PlanMismatch(f"cross-leaf edge {key} not covered")
                if assigned[key] != float(w):
                    raise PlanMismatch(f"edge {key} weight differs from the graph")
                del assigned[key]
        leftovers = [k for k in assigned]
        if leftovers:
            raise PlanMismatch(f"interface edges not present in graph: {leftovers[:3]}")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": PLAN_VERSION,
            "n": self.n,
            "leaves": [np.asarray(lv).tolist() for lv in self.leaves],
            "tree": [
                {
                    "id": nd.id,
                    "children": list(nd.children) if nd.children else None,
                    "leaf": nd.leaf_index,
                }
                for nd in self.nodes
            ],
            "interfaces": {
                str(nid): [[int(u), int(v), float(w)] for u, v, w in edges]
                for nid, edges in sorted(self.interfaces.items())
            },
            "config": self.config,
        }

    @classmethod
    def from_dict(cls, data: dict) -> MergePlan:
        """Rebuild a saved plan; PlanMismatch if the data is not one.

        The version must be PLAN_VERSION; a missing or mistyped field, or
        leaves that do not index n nodes, are reported the same way.
        """
        try:
            version = data["version"]
            if version != PLAN_VERSION:
                raise PlanMismatch(f"plan version {version!r}, expected {PLAN_VERSION}")
            nodes = [
                PlanNode(
                    id=nd["id"],
                    children=tuple(nd["children"]) if nd["children"] else None,
                    leaf_index=nd["leaf"],
                )
                for nd in data["tree"]
            ]
            interfaces = {
                int(nid): [(int(u), int(v), float(w)) for u, v, w in edges]
                for nid, edges in data["interfaces"].items()
            }
            return cls(
                n=data["n"],
                leaves=[np.asarray(lv, dtype=np.int64) for lv in data["leaves"]],
                nodes=nodes,
                interfaces=interfaces,
                config=data.get("config", {}),
            )
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
    nodes: list[PlanNode] = []
    frontier: list[int] = []
    for i in range(len(leaves)):
        nodes.append(PlanNode(id=i, children=None, leaf_index=i))
        frontier.append(i)
    while len(frontier) > 1:
        nxt = []
        for j in range(0, len(frontier) - 1, 2):
            nid = len(nodes)
            nodes.append(
                PlanNode(id=nid, children=(frontier[j], frontier[j + 1]), leaf_index=None)
            )
            nxt.append(nid)
        if len(frontier) % 2:
            nxt.append(frontier[-1])
        frontier = nxt
    plan = MergePlan(
        n=g.n,
        leaves=leaves,
        nodes=nodes,
        interfaces={},
        config=config or {},
    )
    interfaces: dict[int, list[tuple[int, int, float]]] = {}
    for u, v, w in zip(g.uu, g.vv, g.ww):
        lu, lv = int(plan.leaf_of[u]), int(plan.leaf_of[v])
        if lu == lv:
            continue
        nid = plan.lca_of_leaves(lu, lv)
        interfaces.setdefault(nid, []).append((int(u), int(v), float(w)))
    for nid in interfaces:
        interfaces[nid].sort(key=lambda e: (min(e[0], e[1]), max(e[0], e[1])))
    plan.interfaces = interfaces
    plan.validate(g)
    return plan
