import numpy as np
import pytest

from cauchygft.errors import InvalidParams, ParseError, ZeroDegreeNode
from cauchygft.graph import (
    Graph,
    barabasi_albert,
    build_laplacian,
    dense_eig,
    read_graph,
    write_graph,
)


def p3():
    return Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])


def same_edges(a, b):
    """Equal endpoint and weight arrays, bit for bit."""
    return all(np.array_equal(x, y) for x, y in
               ((a.uu, b.uu), (a.vv, b.vv), (a.ww, b.ww)))


def rank_one_sum(g):
    """Independent oracle: sum of w (e_u - e_v)(e_u - e_v)^T plus self-loops."""
    total = np.zeros((g.n, g.n))
    for u, v, w in zip(g.uu, g.vv, g.ww):
        vec = np.zeros(g.n)
        vec[[u, v]] = (1.0, -1.0)
        total += w * np.outer(vec, vec)
    for i, rho in g.self_loops.items():
        total[i, i] += rho
    return total


class TestGraph:
    def test_canonicalizes_edges(self):
        g = Graph.from_edges(4, [(3, 1, 2.0), (0, 2, 1.0)])
        assert g.uu.tolist() == [0, 1]
        assert g.vv.tolist() == [2, 3]
        assert g.ww.tolist() == [1.0, 2.0]

    def test_rejects_duplicates_and_bad_weights(self):
        with pytest.raises(InvalidParams):
            Graph.from_edges(3, [(0, 1, 1.0), (1, 0, 2.0)])
        with pytest.raises(InvalidParams):
            Graph.from_edges(3, [(0, 1, -1.0)])
        with pytest.raises(InvalidParams):
            Graph.from_edges(3, [(0, 3, 1.0)])

    def test_components(self):
        g = Graph.from_edges(5, [(0, 1, 1.0), (3, 4, 1.0)])
        comps = [c.tolist() for c in g.connected_components()]
        assert comps == [[0, 1], [2], [3, 4]]
        assert not g.is_connected()

    def test_components_interleaved_with_isolated_nodes(self):
        # members interleave across components; 3, 6 and 8 are isolated
        g = Graph.from_edges(9, [(0, 5, 1.0), (1, 4, 1.0), (2, 7, 1.0), (4, 7, 2.0)])
        comps = g.connected_components()
        assert [c.tolist() for c in comps] == [[0, 5], [1, 2, 4, 7], [3], [6], [8]]
        assert all(c.dtype == np.int64 for c in comps)
        edgeless = Graph.from_edges(3, []).connected_components()
        assert [c.tolist() for c in edgeless] == [[0], [1], [2]]
        assert Graph.from_edges(0, []).connected_components() == []


class TestLaplacian:
    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1, 1.0)])
        lap = build_laplacian(g).dense()
        assert np.array_equal(lap, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_p3_eigenvalues(self):
        # characteristic polynomial of the 3x3 matrix: -lam (lam-1)(lam-3)
        lap = build_laplacian(p3())
        w, _ = dense_eig(lap)
        assert np.allclose(w, [0.0, 1.0, 3.0], atol=1e-12)

    def test_empty_edges_zero_matrix(self):
        g = Graph.from_edges(4, [])
        assert np.array_equal(build_laplacian(g).dense(), np.zeros((4, 4)))

    def test_self_loops_on_diagonal(self):
        g = Graph.from_edges(2, [(0, 1, 1.0)], {0: 0.5})
        lap = build_laplacian(g).dense()
        assert np.array_equal(lap, np.array([[1.5, -1.0], [-1.0, 1.0]]))

    def test_normalized_rejects_isolated_node(self):
        g = Graph.from_edges(3, [(0, 1, 1.0)])
        with pytest.raises(ZeroDegreeNode):
            build_laplacian(g, "normalized")

    def test_normalized_spectrum_in_0_2(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = barabasi_albert(30, 2, int(rng.integers(1 << 30)))
            w, _ = dense_eig(build_laplacian(g, "normalized"))
            assert w.min() >= -1e-10
            assert w.max() <= 2.0 + 1e-10

    def test_combinatorial_row_sums_and_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = barabasi_albert(25, 3, int(rng.integers(1 << 30)))
            lap = build_laplacian(g)
            assert np.allclose(lap.dense().sum(axis=1), 0.0, atol=1e-12)
            w, _ = dense_eig(lap)
            assert w.min() >= -1e-10


class TestEdgeUpdates:
    def test_p3_sum_reconstructs(self):
        g = p3()
        assert np.array_equal(rank_one_sum(g), build_laplacian(g).dense())

    def test_reconstruction_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            m = int(rng.integers(1, min(4, n)))
            g0 = barabasi_albert(n, m, int(rng.integers(1 << 30)))
            w = rng.uniform(0.1, 3.0, g0.num_edges)
            loops = {0: float(rng.uniform(0.0, 1.0))}
            g = Graph.from_edges(
                n,
                list(zip(g0.uu.tolist(), g0.vv.tolist(), w)),
                loops,
            )
            diff = rank_one_sum(g) - build_laplacian(g).dense()
            assert np.max(np.abs(diff)) <= 1e-14 * max(1.0, float(np.abs(w).sum()))


class TestBarabasiAlbert:
    def test_m1_is_tree(self):
        g = barabasi_albert(5, 1, seed=3)
        assert g.num_edges == 4
        assert g.is_connected()

    def test_edge_count_and_connectivity(self):
        g = barabasi_albert(100, 2, seed=7)
        assert g.num_edges == 2 * (100 - 2) == 196
        assert g.is_connected()

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            barabasi_albert(3, 3, seed=0)
        with pytest.raises(InvalidParams):
            barabasi_albert(3, 0, seed=0)

    def test_determinism(self):
        a = barabasi_albert(60, 2, seed=11)
        b = barabasi_albert(60, 2, seed=11)
        assert same_edges(a, b)
        c = barabasi_albert(60, 2, seed=12)
        assert not same_edges(a, c)


class TestDenseEig:
    def test_two_by_two(self):
        w, u = dense_eig(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(w, [0.0, 2.0], atol=1e-14)
        assert np.allclose(u @ np.diag(w) @ u.T, [[1, -1], [-1, 1]], atol=1e-14)

    def test_zero_matrix(self):
        w, u = dense_eig(np.zeros((4, 4)))
        assert np.array_equal(w, np.zeros(4))
        assert np.allclose(u.T @ u, np.eye(4), atol=1e-14)

    def test_reconstruction_and_orthogonality(self):
        g = barabasi_albert(40, 2, seed=5)
        lap = build_laplacian(g)
        w, u = dense_eig(lap)
        a = lap.dense()
        scale = max(1.0, float(np.linalg.norm(a)))
        assert np.linalg.norm(u @ np.diag(w) @ u.T - a) <= 1e-10 * scale
        assert np.linalg.norm(u.T @ u - np.eye(g.n)) <= 1e-10
        assert np.all(np.diff(w) >= 0.0)


class TestGraphIo:
    def test_parse_p3(self, tmp_path):
        path = tmp_path / "p3.txt"
        path.write_text("3\n0 1 1.0\n1 2 1.0\n")
        g = read_graph(str(path))
        assert g.n == 3
        assert g.uu.tolist() == [0, 1]
        assert g.vv.tolist() == [1, 2]
        assert g.ww.tolist() == [1.0, 1.0]

    def test_round_trip(self, tmp_path):
        g = barabasi_albert(50, 2, seed=9)
        path = tmp_path / "g.txt"
        write_graph(g, str(path))
        back = read_graph(str(path))
        assert back.n == g.n
        assert same_edges(back, g)

    def test_round_trip_self_loops(self, tmp_path):
        g = Graph.from_edges(3, [(0, 1, 0.25)], {2: 1.5})
        path = tmp_path / "g.txt"
        write_graph(g, str(path))
        back = read_graph(str(path))
        assert back.self_loops == {2: 1.5}

    def test_malformed_weight_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n0 1 1.0\n1 2 oops\n")
        with pytest.raises(ParseError) as err:
            read_graph(str(path))
        assert err.value.line_no == 3

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_graph(str(tmp_path / "nope.txt"))
