import numpy as np
import pytest

from cauchygft import partition
from cauchygft.errors import ConvergenceFailure, Disconnected
from cauchygft.factorization import factorize
from cauchygft.graph import Graph, barabasi_albert, build_laplacian, dense_eig
from cauchygft.partition import (
    bisect,
    build_plan,
    fiedler_vector,
)
from cauchygft.sparsify import SparsifyPolicy


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def complete_graph(n, offset=0, weight=1.0):
    return [(i + offset, j + offset, weight) for i in range(n) for j in range(i + 1, n)]


def algebraic_connectivity(g):
    w, _ = dense_eig(build_laplacian(g))
    return float(w[1])


class TestFiedler:
    def test_p4_sign_pattern(self):
        v = fiedler_vector(path_graph(4), seed=0)
        signs = np.sign(v)
        assert set(signs[:2]) != set(signs[2:])
        assert signs[0] == signs[1] and signs[2] == signs[3]

    def test_k4_degenerate(self):
        g = Graph.from_edges(4, complete_graph(4))
        v = fiedler_vector(g, seed=1)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-10
        assert abs(v.sum()) <= 1e-8
        rayleigh = v @ (build_laplacian(g).dense() @ v)
        assert abs(rayleigh - 4.0) <= 1e-8

    def test_two_triangles_bridge(self):
        edges = complete_graph(3) + complete_graph(3, offset=3) + [(2, 3, 1.0)]
        g = Graph.from_edges(6, edges)
        v = fiedler_vector(g, seed=2)
        assert len(set(np.sign(v[:3]))) == 1
        assert len(set(np.sign(v[3:]))) == 1
        assert np.sign(v[0]) != np.sign(v[3])

    def test_disconnected_raises(self):
        g = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(Disconnected):
            fiedler_vector(g)

    def test_rayleigh_within_5pct_of_dense(self):
        for seed, n in [(0, 80), (1, 150), (2, 300)]:
            g = barabasi_albert(n, 2, seed=seed)
            v = fiedler_vector(g, seed=seed)
            rayleigh = float(v @ (build_laplacian(g).matrix @ v))
            lam2 = algebraic_connectivity(g)
            assert rayleigh <= lam2 * 1.05
            assert rayleigh >= lam2 * 0.95  # Rayleigh quotients upper-bound from lam2

    def test_determinism(self):
        g = barabasi_albert(200, 2, seed=5)
        assert np.array_equal(fiedler_vector(g, seed=3), fiedler_vector(g, seed=3))


class TestFiedlerFailure:
    """LOBPCG failures, on both sides of a patched dense fallback limit of 100."""

    @pytest.fixture(autouse=True)
    def fallback_limit(self, monkeypatch):
        monkeypatch.setattr(partition, "_DENSE_FALLBACK_N", 100)

    @staticmethod
    def dense_fiedler(g):
        _, u = dense_eig(build_laplacian(g))
        v = u[:, 1] - u[:, 1].mean()
        v /= np.linalg.norm(v)
        return v if v[np.argmax(np.abs(v))] >= 0.0 else -v

    @pytest.mark.parametrize(
        "exc, n, error",
        [
            (ValueError, 90, None),
            (np.linalg.LinAlgError, 90, None),
            (np.linalg.LinAlgError, 110, ConvergenceFailure),
            (TypeError, 90, TypeError),  # not a convergence failure: propagates
        ],
    )
    def test_lobpcg_raises(self, monkeypatch, exc, n, error):
        def broken(*args, **kwargs):
            raise exc("no convergence")

        monkeypatch.setattr(partition, "lobpcg", broken)
        g = barabasi_albert(n, 2, seed=4)
        if error is None:
            assert np.allclose(fiedler_vector(g, seed=1), self.dense_fiedler(g), atol=1e-10)
        else:
            with pytest.raises(error, match="no iterate on 110 nodes|no convergence"):
                fiedler_vector(g, seed=1)

    @pytest.mark.parametrize("n, warns", [(90, False), (110, True)])
    def test_residual_miss(self, monkeypatch, n, warns):
        # the seeded start is a poor iterate: dense below the limit, kept above
        monkeypatch.setattr(partition, "lobpcg", lambda mat, x0, **kw: (np.ones(2), x0))
        g = barabasi_albert(n, 2, seed=4)
        if warns:
            with pytest.warns(UserWarning, match="returning best iterate"):
                v = fiedler_vector(g, seed=1)
            assert not np.allclose(np.abs(v), np.abs(self.dense_fiedler(g)), atol=1e-3)
        else:
            assert np.allclose(fiedler_vector(g, seed=1), self.dense_fiedler(g), atol=1e-10)


class TestBisect:
    def test_p4_halves(self):
        cand = bisect(path_graph(4))
        sides = {frozenset(cand.side_a.tolist()), frozenset(cand.side_b.tolist())}
        assert sides == {frozenset({0, 1}), frozenset({2, 3})}
        assert len(cand.crossing_edges) == 1

    def test_star_always_crosses(self):
        g = Graph.from_edges(6, [(0, i, 1.0) for i in range(1, 6)])
        cand = bisect(g, seed=0)
        assert len(cand.crossing_edges) >= 1
        assert cand.side_a.size and cand.side_b.size

    def test_ba_cut_recorded(self):
        g = barabasi_albert(200, 2, seed=7)
        cand = bisect(g, seed=7)
        print(f"BA n=200 bisection crossing count: {len(cand.crossing_edges)}")
        assert len(cand.crossing_edges) >= 1
        assert 0.4 <= cand.side_a.size / g.n <= 0.6


class TestBuildPlan:
    def test_two_node_edge_split_accepted(self):
        # Eq-style rule with unit constants: 2^2*1 + 1 < 2^3
        g = Graph.from_edges(2, [(0, 1, 1.0)])
        res = build_plan(g)
        assert len(res.plan.leaves) == 2
        assert res.plan.total_bridges == 1

    def test_two_cliques_one_bridge(self):
        # 20^3 = 8000 beats 20^2*1 + 10^3 = 1400: split once, cliques stay whole
        edges = complete_graph(10) + complete_graph(10, offset=10) + [(0, 10, 1.0)]
        g = Graph.from_edges(20, edges)
        res = build_plan(g, seed=0)
        plan = res.plan
        assert len(plan.leaves) == 2
        leafsets = {frozenset(lv.tolist()) for lv in plan.leaves}
        assert leafsets == {frozenset(range(10)), frozenset(range(10, 20))}
        assert plan.total_bridges == 1

    def test_k20_single_leaf(self):
        g = Graph.from_edges(20, complete_graph(20))
        res = build_plan(g, seed=0)
        assert len(res.plan.leaves) == 1
        assert res.plan.total_bridges == 0

    def test_plan_valid_and_deterministic(self):
        g = barabasi_albert(150, 2, seed=9)
        r1 = build_plan(g, seed=4)
        r2 = build_plan(g, seed=4)
        r1.plan.validate(g)
        assert r1.plan.to_dict() == r2.plan.to_dict()

    def test_cost_monotonicity(self):
        # the unit cost rule: n^3 for a dense leaf solve, n^2 k per merge
        for seed in range(5):
            g = barabasi_albert(120, 2, seed=seed)
            plan = build_plan(g, seed=seed).plan
            assert plan.config["cost"] == {"eig_coeff": 1.0, "merge_coeff": 1.0}

            def modeled(nid):
                nd = plan.tree[nid]
                if nd.children is None:
                    return float(len(plan.leaves[nd.leaf])) ** 3
                s0, s1 = plan.ranges[nid]
                k = len(plan.interfaces.get(nid, ()))
                return float(s1 - s0) ** 2 * k + max(
                    modeled(nd.children[0]), modeled(nd.children[1])
                )

            assert modeled(plan.root_id) <= float(g.n) ** 3

    def test_disconnected_components_zero_bridges(self):
        g = Graph.from_edges(
            8, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)] + [(5, 6, 1.0), (6, 7, 1.0)]
        )
        res = build_plan(g, seed=0)
        plan = res.plan
        root_edges = plan.interfaces.get(plan.root_id, [])
        assert root_edges == []
        f = factorize(g, plan)
        w, _ = dense_eig(build_laplacian(g))
        assert np.max(np.abs(np.sort(f.lambda_final) - w)) <= 1e-10

    def test_forced_levels_shape(self):
        g = barabasi_albert(200, 2, seed=11)
        res = build_plan(g, force_levels=2, max_levels=2, seed=11)
        assert len(res.plan.leaves) == 4
        assert res.plan.num_levels == 2

    def test_sparsified_plan_stays_valid(self):
        g = barabasi_albert(200, 2, seed=13)
        plain = build_plan(g, force_levels=1, max_levels=1, seed=13)
        policy = SparsifyPolicy(keep_fraction=0.5)
        res = build_plan(g, force_levels=1, max_levels=1, sparsify=policy, seed=13)
        res.plan.validate(res.graph)
        assert res.plan.max_interface_size <= plain.plan.max_interface_size
        assert all(w > 0 for edges in res.plan.interfaces.values() for _, _, w in edges)

    def test_partitioner_plans_factorize_exactly(self):
        for seed in (0, 1, 2):
            g = barabasi_albert(160, 2, seed=seed)
            res = build_plan(g, force_levels=2, max_levels=2, seed=seed)
            f = factorize(g, res.plan)
            w, _ = dense_eig(build_laplacian(g))
            assert np.max(np.abs(np.sort(f.lambda_final) - w)) <= 1e-8
