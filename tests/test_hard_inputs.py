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
