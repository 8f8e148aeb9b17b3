import json

import numpy as np
import pytest

from cauchygft.errors import PlanMismatch
from cauchygft.factorization import factorize
from cauchygft.graph import Graph, barabasi_albert
from cauchygft.partition import build_plan
from cauchygft.plan import MergePlan, PlanNode, plan_from_leaves
from cauchygft.sparsify import SparsifyPolicy

# json.dumps(plan.to_dict()) and content_hash() of pinned_plan(): the saved
# plan text, and so every stored plan hash, must not move
PINNED_TEXT = (
    '{"version": 1, "n": 7, "leaves": [[0, 1, 2], [3, 4], [5, 6]], "tree": '
    '[{"id": 0, "children": null, "leaf": 0}, {"id": 1, "children": null, "leaf": 1}, '
    '{"id": 2, "children": null, "leaf": 2}, {"id": 3, "children": [0, 1], "leaf": null}, '
    '{"id": 4, "children": [3, 2], "leaf": null}], "interfaces": {"3": [[2, 3, 2.25]], '
    '"4": [[0, 6, 0.75], [1, 5, 1.0], [4, 5, 3.0]]}, "config": {"recipe": "pinned"}}'
)
PINNED_HASH = "ee8fa3b95def9385"


def pinned_graph():
    return Graph.from_edges(
        7,
        [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.25), (3, 4, 1.0), (4, 5, 3.0),
         (5, 6, 1.5), (0, 6, 0.75), (1, 5, 1.0)],
    )


def pinned_plan():
    return plan_from_leaves(
        pinned_graph(), [[2, 0, 1], [3, 4], [6, 5]], config={"recipe": "pinned"}
    )


def leaf(i):
    return PlanNode(id=i, children=None, leaf=i)


class TestPlanText:
    def test_text_and_hash_pinned(self):
        plan = pinned_plan()
        assert json.dumps(plan.to_dict()) == PINNED_TEXT
        assert plan.content_hash() == PINNED_HASH

    def test_pinned_text_loads_back(self):
        plan = MergePlan.from_dict(json.loads(PINNED_TEXT))
        assert json.dumps(plan.to_dict()) == PINNED_TEXT
        assert plan.content_hash() == PINNED_HASH
        assert plan.tree[4] == PlanNode(id=4, children=(3, 2), leaf=None)
        assert plan.ranges == {0: (0, 3), 1: (3, 5), 2: (5, 7), 3: (0, 5), 4: (0, 7)}
        assert plan.num_levels == 2
        plan.validate(pinned_graph())

    def test_integer_weight_loads_as_float(self):
        data = json.loads(PINNED_TEXT)
        data["interfaces"]["4"][1] = [1, 5, 1]
        plan = MergePlan.from_dict(data)
        w = plan.interfaces[4][1][2]
        assert type(w) is float and w == 1.0
        assert json.dumps(plan.to_dict()) == PINNED_TEXT

    def test_missing_config_reads_as_empty(self):
        data = json.loads(PINNED_TEXT)
        del data["config"]
        assert MergePlan.from_dict(data).config == {}

    def test_owner_is_lowest_common_range(self):
        plan = pinned_plan()
        assert plan.owner(2, 3) == 3
        assert plan.owner(6, 0) == 4
        assert plan.owner(4, 3) == 1
        assert plan.owner(0, 0) == 0


class TestMalformedPlans:
    @pytest.mark.parametrize(
        "tree, message",
        [
            ([leaf(0), leaf(1), leaf(2), PlanNode(4, (0, 1), None),
              PlanNode(4, (3, 2), None)], "tree entry 3 has id 4"),
            ([leaf(0), leaf(1), leaf(2), PlanNode(3, (0, 4), None),
              PlanNode(4, (3, 2), None)], "cannot take node 4"),
            ([leaf(0), leaf(1), leaf(2), PlanNode(3, (0, 1), None),
              PlanNode(4, (3, 1), None)], "cannot take node 1"),
            ([leaf(0), leaf(1), PlanNode(2, None, 1), PlanNode(3, (0, 1), None),
              PlanNode(4, (3, 2), None)], "names leaf 1"),
            ([leaf(0), leaf(1), PlanNode(2, None, 3), PlanNode(3, (0, 1), None),
              PlanNode(4, (3, 2), None)], "names leaf 3"),
            ([leaf(0), leaf(1), leaf(2), PlanNode(3, (1, 0), None),
              PlanNode(4, (3, 2), None)], "not adjacent"),
            # a forest: the last entry is leaf 2, so no node spans all positions
            ([leaf(0), leaf(1), PlanNode(2, (0, 1), None), PlanNode(3, None, 2)],
             "not one binary tree over all 7"),
        ],
        ids=["misnumbered", "later_child", "child_twice", "leaf_twice",
             "unknown_leaf", "swapped_children", "forest"],
    )
    def test_bad_tree_refused(self, tree, message):
        data = json.loads(PINNED_TEXT)
        data["tree"] = [
            {"id": nd.id, "children": nd.children and list(nd.children), "leaf": nd.leaf}
            for nd in tree
        ]
        with pytest.raises(PlanMismatch, match=message):
            MergePlan.from_dict(data)

    @pytest.mark.parametrize("key", ["999", "-1", "0"])
    def test_unknown_or_wrong_owner_refused(self, key):
        data = json.loads(PINNED_TEXT)
        data["interfaces"][key] = data["interfaces"].pop("4")
        plan = MergePlan.from_dict(data)
        with pytest.raises(PlanMismatch, match=f"children of node {key}"):
            factorize(pinned_graph(), plan)

    def test_endpoint_outside_graph_refused(self):
        data = json.loads(PINNED_TEXT)
        data["interfaces"]["4"].append([0, 7, 1.0])
        with pytest.raises(PlanMismatch, match="outside the graph"):
            MergePlan.from_dict(data).validate(pinned_graph())


def walk_owner(plan, parent, u, v):
    """Reference: climb from u's leaf until the node's range holds v."""
    pos = plan.node_to_pos[v]
    nid = plan.leaf_node_id[int(plan.leaf_of[u])]
    while not plan.ranges[nid][0] <= pos < plan.ranges[nid][1]:
        nid = parent[nid]
    return nid


def walk_carry(plan, parent):
    """Reference: each bridge is carried by every merge on the paths from
    its endpoints' leaves up to its owner, and by the owner; keys per merge
    in interface order."""
    carry = {nd.id: [] for nd in plan.internal_nodes()}
    for nid, edges in plan.interfaces.items():
        for u, v, _ in edges:
            key = (min(u, v), max(u, v))
            for node in (u, v):
                up = parent[plan.leaf_node_id[int(plan.leaf_of[node])]]
                while up != nid:
                    carry[up].append(key)
                    up = parent[up]
            carry[nid].append(key)
    return carry


def flipped(plan):
    """The same plan with every interface edge listed as (v, u)."""
    return MergePlan(
        n=plan.n, leaves=plan.leaves, tree=plan.tree,
        interfaces={nid: [(v, u, w) for u, v, w in es] for nid, es in plan.interfaces.items()},
    )


@pytest.fixture(scope="module")
def rule_plans():
    """Graph and plan per case: default and paper recipes, hand cuts."""
    out = {}
    for n, seed in [(200, 0), (200, 3), (300, 11)]:
        g = barabasi_albert(n, 2, seed=seed)
        out[f"default-{n}-{seed}"] = (g, build_plan(g, seed=seed).plan)
    res = build_plan(barabasi_albert(160, 2, seed=0), force_levels=2, max_levels=2,
                     sparsify=SparsifyPolicy(target_count=5), seed=0)
    out["paper-160-0"] = (res.graph, res.plan)
    g = barabasi_albert(90, 2, seed=7)
    cuts = [range(0, 7), range(7, 30), range(30, 31), range(31, 62), range(62, 90)]
    hand = plan_from_leaves(g, [list(c) for c in cuts])
    out["hand-5-leaves"] = (g, hand)
    out["hand-5-leaves-flipped"] = (g, flipped(hand))
    out["pinned-flipped"] = (pinned_graph(), flipped(pinned_plan()))
    return out


@pytest.mark.parametrize(
    "case",
    ["default-200-0", "default-200-3", "default-300-11", "paper-160-0",
     "hand-5-leaves", "hand-5-leaves-flipped", "pinned-flipped"],
)
def test_range_rule_matches_parent_walk(rule_plans, case):
    g, plan = rule_plans[case]
    plan.validate(g)
    parent = {c: nd.id for nd in plan.tree if nd.children for c in nd.children}
    u, v, w, filed = plan.bridge_arrays()
    assert u.size == plan.total_bridges > 0
    walked = [walk_owner(plan, parent, a, b) for a, b in zip(u, v)]
    assert plan.owners(u, v).tolist() == walked == filed.tolist()
    # pairs inside one leaf and across leaves, both ways round
    rng = np.random.default_rng(0)
    for a, b in rng.integers(0, plan.n, size=(200, 2)):
        assert plan.owner(a, b) == plan.owner(b, a) == walk_owner(plan, parent, a, b)
    keys = [(int(min(a, b)), int(max(a, b))) for a, b in zip(u, v)]
    carried = {nid: [keys[k] for k in ks] for nid, ks in plan.carried().items()}
    want = walk_carry(plan, parent)
    assert [*carried] == [*want] and carried == want
