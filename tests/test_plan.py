import json

import pytest

from cauchygft.errors import PlanMismatch
from cauchygft.factorization import factorize
from cauchygft.graph import Graph
from cauchygft.plan import MergePlan, PlanNode, plan_from_leaves

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
