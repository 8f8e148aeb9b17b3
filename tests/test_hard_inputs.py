"""Property tests on hard inputs: the factorization against the dense oracle.

Weights span twelve decades, complete graphs and stars carry eigenvalues of
exact multiplicity, self-loops shift the diagonal, and both Laplacian kinds
run on plans from build_plan and on random hand-cut leaf sets.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchygft.factorization import factorize
from cauchygft.graph import Graph, build_laplacian, dense_eig
from cauchygft.partition import build_plan
from cauchygft.plan import plan_from_leaves

TOL = 1e-10

log_weights = st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0**e)


@st.composite
def hard_graphs(draw) -> Graph:
    shape = draw(st.sampled_from(["random", "complete", "star"]))
    n = draw(st.integers(min_value=2, max_value=40))
    if shape == "complete":
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif shape == "star":
        pairs = [(0, v) for v in range(1, n)]
    else:
        # a random spanning tree plus random extra edges: connected, so the
        # normalized kind sees no zero degree
        order = draw(st.permutations(range(n)))
        pairs = {
            tuple(sorted((order[i], order[draw(st.integers(0, i - 1))])))
            for i in range(1, n)
        }
        node = st.integers(0, n - 1)
        extra = draw(st.lists(st.tuples(node, node), max_size=2 * n))
        pairs |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
        pairs = sorted(pairs)
    if shape == "random":
        weights = draw(st.lists(log_weights, min_size=len(pairs), max_size=len(pairs)))
    else:
        # one weight for every edge keeps the multiplicities exact
        weights = [draw(log_weights)] * len(pairs)
    loops = draw(st.dictionaries(st.integers(0, n - 1), log_weights, max_size=3))
    return Graph.from_edges(n, [(u, v, w) for (u, v), w in zip(pairs, weights)], loops)


@st.composite
def leaf_sets(draw, n: int) -> list[list[int]]:
    order = draw(st.permutations(range(n)))
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=min(n - 1, 7)))
    bounds = [0, *sorted(cuts), n]
    return [order[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(data=st.data(), kind=st.sampled_from(["combinatorial", "normalized"]))
def test_factorize_matches_dense_oracle(data, kind):
    g = data.draw(hard_graphs())
    if data.draw(st.booleans(), label="build_plan"):
        seed = data.draw(st.integers(0, 2**16))
        force = data.draw(st.integers(0, 2))
        plan = build_plan(g, seed=seed, force_levels=force, max_levels=max(force, 3)).plan
    else:
        plan = plan_from_leaves(g, data.draw(leaf_sets(g.n)))
    lap = build_laplacian(g, kind).dense()
    want, _ = dense_eig(lap)
    fact = factorize(g, plan, kind=kind)
    scale = max(1.0, float(want[-1]))
    assert np.max(np.abs(np.sort(fact.lambda_final) - want)) <= TOL * scale
    rebuilt = fact.reconstruct_operator(fact.lambda_final)
    assert np.linalg.norm(rebuilt - lap) <= TOL * np.linalg.norm(lap)


@st.composite
def parallel_bridge_graphs(draw) -> tuple[Graph, list[list[int]]]:
    """Four path leaves with complete bipartite bridges owned at two levels.

    plan_from_leaves merges leaves 0 and 1 first, then the pair with the
    merge of leaves 2 and 3. Bridges K_{p,q} join leaf 0 to leaf 1 (owned
    by their merge) and leaf 0 or 1 to leaf 2 or 3 (owned by the root), so
    the first merge carries its own bridges and the root's side by side.
    """
    sizes = [draw(st.integers(2, 5)) for _ in range(4)]
    order = draw(st.permutations(range(sum(sizes))))
    bounds = np.cumsum([0, *sizes])
    leaves = [list(order[a:b]) for a, b in zip(bounds, bounds[1:])]
    same = draw(st.booleans())
    weight = draw(log_weights)

    def w() -> float:
        return weight if same else draw(log_weights)

    edges = [(lv[i], lv[i + 1], w()) for lv in leaves for i in range(len(lv) - 1)]
    outer = (draw(st.integers(0, 1)), draw(st.integers(2, 3)))
    for la, lb in ((0, 1), outer):
        p = draw(st.integers(1, 2))
        q = draw(st.integers(3 - p, 2))  # p * q >= 2 parallel bridges
        edges += [(u, v, w()) for u in leaves[la][:p] for v in leaves[lb][:q]]
    return Graph.from_edges(len(order), edges), leaves


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(case=parallel_bridge_graphs(), kind=st.sampled_from(["combinatorial", "normalized"]))
def test_parallel_bridges_at_two_levels_match_dense_oracle(case, kind):
    g, leaves = case
    plan = plan_from_leaves(g, leaves)
    owners = sorted(len(edges) for edges in plan.interfaces.values())
    assert len(owners) == 2 and owners[0] >= 2
    lap = build_laplacian(g, kind).dense()
    want, _ = dense_eig(lap)
    fact = factorize(g, plan, kind=kind)
    scale = max(1.0, float(want[-1]))
    assert np.max(np.abs(np.sort(fact.lambda_final) - want)) <= TOL * scale
    rebuilt = fact.reconstruct_operator(fact.lambda_final)
    assert np.linalg.norm(rebuilt - lap) <= TOL * np.linalg.norm(lap)
